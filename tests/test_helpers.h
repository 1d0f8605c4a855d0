/**
 * @file
 * Shared fixtures and builders for the wsestencil test suite.
 */

#ifndef WSC_TESTS_TEST_HELPERS_H
#define WSC_TESTS_TEST_HELPERS_H

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "dialects/all.h"
#include "frontends/benchmarks.h"
#include "support/error.h"
#include "interp/csl_interpreter.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "model/reference.h"
#include "transforms/pipeline.h"
#include "wse/payload.h"
#include "wse/simulator.h"

namespace wsc::test {

/** Fixture owning a context with every dialect registered. */
class IrTest : public ::testing::Test
{
  protected:
    IrTest() { dialects::registerAllDialects(ctx); }

    ir::Context ctx;
};

/** Count ops with the given identity under root. */
inline int
countOps(ir::Operation *root, ir::OpId id)
{
    int n = 0;
    root->walk([&](ir::Operation *op) {
        if (op->is(id))
            n++;
    });
    return n;
}

/** First op with the given identity under root (or nullptr). */
inline ir::Operation *
firstOp(ir::Operation *root, ir::OpId id)
{
    ir::Operation *found = nullptr;
    root->walk([&](ir::Operation *op) {
        if (!found && op->is(id))
            found = op;
    });
    return found;
}

/// @name Spelled-out op-name conveniences for test readability.
/// @{
inline int
countOps(ir::Operation *root, const char *name)
{
    return countOps(root, ir::OpId::get(name));
}

inline ir::Operation *
firstOp(ir::Operation *root, const char *name)
{
    return firstOp(root, ir::OpId::get(name));
}
/// @}

/**
 * Run a benchmark end to end (pipeline + simulator) and compare every
 * field against the reference executor. Returns the max relative error.
 *
 * `compareMargin` skips the outer x/y cells: stencil-inlining computes
 * fused kernels only on the joint interior of all fused accesses, so
 * programs whose statements have different access sets (UVKBE) are
 * compared on the region where the unfused reference and the fused
 * program agree by construction.
 */
inline double
endToEndError(fe::Benchmark &bench, const wse::ArchParams &arch, int nx,
              int ny, int64_t steps, int compareMargin = 0)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    EXPECT_TRUE(ir::succeeded(ir::verify(module.get())));
    ir::PipelineResult pipeline = transforms::runPipeline(module.get());
    EXPECT_TRUE(pipeline.succeeded) << pipeline.str();

    wse::Simulator sim(arch, nx, ny);
    interp::CslProgramInstance instance(sim, module.get());
    for (size_t f = 0; f < bench.program.numFields(); ++f) {
        int fi = static_cast<int>(f);
        auto init = bench.init;
        instance.setFieldInit(bench.program.fieldName(f),
                              [init, fi](int x, int y, int z) {
                                  return init(fi, x, y, z);
                              });
    }
    instance.configure();
    instance.launch();
    sim.runWithReport(4000000000ULL);
    EXPECT_EQ(instance.unblockCount(),
              static_cast<uint64_t>(nx) * static_cast<uint64_t>(ny));

    model::ReferenceExecutor ref(bench.program, bench.init);
    ref.run(steps);

    double maxErr = 0.0;
    for (size_t f = 0; f < bench.program.numFields(); ++f) {
        if (bench.program.isIntermediate(f))
            continue; // never written back to the host
        const std::string &name = bench.program.fieldName(f);
        for (int x = compareMargin; x < nx - compareMargin; ++x)
            for (int y = compareMargin; y < ny - compareMargin; ++y) {
                std::vector<float> col =
                    instance.readFieldColumn(name, x, y);
                for (size_t z = 0; z < col.size(); ++z) {
                    double r = ref.at(f, x, y,
                                      static_cast<int64_t>(z));
                    double err = std::abs(col[z] - r) /
                                 std::max(1.0, std::abs(r));
                    maxErr = std::max(maxErr, err);
                }
            }
    }
    return maxErr;
}

/**
 * Host-side stream send: copy `data` into a fresh slot of PE (x, y)'s
 * payload ring and send it towards `dir`, delivering at every hop listed
 * in `hops` (Fabric::sendStream's hop mask). `tag` comes back in
 * StreamDelivery::tag.
 */
inline wse::Cycles
sendHostStream(wse::Simulator &sim, int x, int y, wse::Direction dir,
               std::initializer_list<int> hops, std::vector<float> data,
               wse::Cycles notBefore, wse::DeliveryFn deliver,
               uint64_t tag = 0)
{
    uint32_t mask = 0;
    for (int h : hops)
        mask |= 1u << h;
    wse::PayloadRef slot = sim.pe(x, y).payloadPool().acquire();
    slot.mutableData() = std::move(data);
    return sim.fabric().sendStream(
        x, y, dir, mask, std::move(slot), notBefore,
        std::make_shared<const wse::DeliveryFn>(std::move(deliver)), tag);
}

} // namespace wsc::test

#endif // WSC_TESTS_TEST_HELPERS_H
