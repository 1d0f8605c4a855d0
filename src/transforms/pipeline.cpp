#include "transforms/pipeline.h"

#include <iostream>

#include "ir/pattern.h"
#include "transforms/arith_to_linalg.h"
#include "transforms/bufferize.h"
#include "transforms/control_flow_to_task_graph.h"
#include "transforms/csl_wrapper_hoist.h"
#include "transforms/distribute_stencil.h"
#include "transforms/linalg_fuse_fmac.h"
#include "transforms/linalg_to_csl.h"
#include "transforms/lower_csl_wrapper.h"
#include "transforms/memref_to_dsd.h"
#include "transforms/stencil_inlining.h"
#include "transforms/stencil_to_csl_stencil.h"
#include "transforms/tensorize_z.h"
#include "transforms/varith_transforms.h"

namespace wsc::transforms {

uint64_t
PipelineOptions::fingerprint() const
{
    // splitmix64 chain over the artifact-relevant fields; field order
    // is the schema, so appending new options keeps old hashes stable.
    auto mix = [](uint64_t x) {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    };
    uint64_t h = 0x706970656f707473ULL; // "pipeopts"
    h = mix(h ^ (enableStencilInlining ? 1 : 0));
    h = mix(h ^ (enableVarithFusion ? 1 : 0));
    h = mix(h ^ (enableCoeffPromotion ? 1 : 0));
    h = mix(h ^ (enableOneShotReduction ? 1 : 0));
    h = mix(h ^ (enableFmacFusion ? 1 : 0));
    h = mix(h ^ static_cast<uint64_t>(recvBufferBudgetBytes));
    h = mix(h ^ static_cast<uint64_t>(forceNumChunks));
    return h;
}

ir::PassManager
buildPipeline(const PipelineOptions &options)
{
    ir::PassManager pm(options.verifyEach);

    // Optimization at the stencil level (§5.7).
    if (options.enableStencilInlining)
        pm.addPass(createStencilInliningPass());
    pm.addPass(createArithToVarithPass());
    if (options.enableVarithFusion)
        pm.addPass(createVarithFuseRepeatedOperandsPass());

    // Group 1: decomposition and data dependencies (§5.1).
    pm.addPass(createDistributeStencilPass());
    pm.addPass(createTensorizeZPass());

    // Group 2: placement and communication (§5.2).
    StencilToCslStencilOptions s2cs;
    s2cs.recvBufferBudgetBytes = options.recvBufferBudgetBytes;
    s2cs.forceNumChunks = options.forceNumChunks;
    s2cs.disableCoeffPromotion = !options.enableCoeffPromotion;
    pm.addPass(createStencilToCslStencilPass(s2cs));
    pm.addPass(createCslWrapperHoistPass());

    // Group 3: memory realization within a PE (§5.3).
    pm.addPass(createBufferizePass());
    pm.addPass(createArithToLinalgPass());
    if (options.enableFmacFusion)
        pm.addPass(createLinalgFuseFmacPass());

    // Group 4: map to the actor execution model (§5.4).
    pm.addPass(createControlFlowToTaskGraphPass());

    // Group 5: lowering to csl-ir (§5.5).
    LinalgToCslOptions l2c;
    l2c.disableOneShotReduction = !options.enableOneShotReduction;
    pm.addPass(createLinalgToCslPass(l2c));
    pm.addPass(createMemrefToDsdCleanupPass());
    pm.addPass(createLowerCslWrapperPass());

    return pm;
}

ir::PipelineResult
runPipeline(ir::Operation *module, const PipelineOptions &options)
{
    ir::PassManager pm = buildPipeline(options);
    ir::PipelineResult result = pm.run(module);
    if (ir::patternStatsRequested())
        ir::dumpPatternStats(std::cerr);
    return result;
}

} // namespace wsc::transforms
