/**
 * @file
 * The canonical lowering pipeline (paper Figure 3): from the stencil
 * dialect produced by the frontends down to csl-ir, with per-stage
 * verification. Options expose the ablation toggles of §5.7.
 */

#ifndef WSC_TRANSFORMS_PIPELINE_H
#define WSC_TRANSFORMS_PIPELINE_H

#include <cstdint>

#include "ir/pass.h"

namespace wsc::transforms {

/** Pipeline-wide options (ablations and tuning knobs). */
struct PipelineOptions
{
    bool enableStencilInlining = true;
    bool enableVarithFusion = true;
    bool enableCoeffPromotion = true;
    bool enableOneShotReduction = true;
    bool enableFmacFusion = true;
    /** Per-PE bytes allowed for one receive buffer (chunking policy). */
    int64_t recvBufferBudgetBytes = 32 * 1024;
    /** Force a chunk count (0 = derive from the budget). */
    int64_t forceNumChunks = 0;
    /** Verify the IR after every pass. */
    bool verifyEach = true;

    /**
     * Stable hash over every option that can change the emitted
     * artifact. Folded into the compile service's cache key alongside
     * the module fingerprint (ir/module_hash.h) so two requests for the
     * same module under different ablation toggles or chunking budgets
     * never collide. The observability-only verifyEach is deliberately
     * excluded.
     */
    uint64_t fingerprint() const;
};

/** Build the full stencil-to-csl pipeline. */
ir::PassManager buildPipeline(const PipelineOptions &options = {});

/**
 * Run the full pipeline on a module (stencil dialect in, csl-ir out).
 * Never aborts on malformed input: diagnostics are captured in the
 * result, the run stops at the first failing pass, and the module is
 * left intact (partially lowered) for post-mortem printing. Check
 * `result.succeeded` (or `if (result)`) before using the module.
 */
ir::PipelineResult runPipeline(ir::Operation *module,
                               const PipelineOptions &options = {});

} // namespace wsc::transforms

#endif // WSC_TRANSFORMS_PIPELINE_H
