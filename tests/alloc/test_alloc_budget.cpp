/**
 * @file
 * Allocation budgets on the acoustic program. Set-up: the marginal heap
 * allocations per PE of Simulator construction and
 * CslProgramInstance::configure(). The lowering emits one pe.csl program
 * for every PE, so per-PE set-up may allocate that PE's own buffers and
 * a few flat tables, never per-PE names, hash nodes, deques or route
 * tables. Run phase: the marginal heap allocations per halo exchange.
 *
 * This file is its own executable (`wsc_alloc_tests`, `ctest -L alloc`)
 * because it replaces the global operator new to count allocations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "dialects/all.h"
#include "frontends/benchmarks.h"
#include "interp/csl_interpreter.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

namespace {

std::atomic<uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace wsc::test {
namespace {

/** Allocations of one set-up and run at an n x n grid. */
struct Allocations
{
    int64_t construct = 0;
    int64_t configure = 0;
    int64_t run = 0;
};

Allocations
measure(int n, int timesteps = 2)
{
    fe::Benchmark bench = fe::makeAcoustic(n, n, timesteps, /*nz=*/8);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    Allocations out;
    uint64_t before = gAllocations.load();
    wse::Simulator sim(wse::ArchParams::wse3(), n, n);
    out.construct = gAllocations.load() - before;

    interp::CslProgramInstance instance(sim, module.get());
    for (size_t f = 0; f < bench.program.numFields(); ++f) {
        int fi = static_cast<int>(f);
        auto init = bench.init;
        instance.setFieldInit(bench.program.fieldName(f),
                              [init, fi](int x, int y, int z) {
                                  return init(fi, x, y, z);
                              });
    }
    before = gAllocations.load();
    instance.configure();
    out.configure = gAllocations.load() - before;

    // The instance must still run: the budget is for a working set-up.
    instance.launch();
    before = gAllocations.load();
    sim.runWithReport();
    out.run = gAllocations.load() - before;
    EXPECT_EQ(instance.unblockCount(), static_cast<uint64_t>(n) * n);
    return out;
}

TEST(AllocBudget, SetUpAllocationsPerPe)
{
    Allocations small = measure(24);
    Allocations large = measure(48);
    const double pes = 48.0 * 48.0 - 24.0 * 24.0;
    const double construct =
        static_cast<double>(large.construct - small.construct) / pes;
    const double configure =
        static_cast<double>(large.configure - small.configure) / pes;
    std::printf("marginal allocations per PE: construct %.2f, "
                "configure %.2f\n",
                construct, configure);
    EXPECT_LE(construct, 2.0);
    EXPECT_LE(configure, 16.0);
}

TEST(AllocBudget, RunPhaseAllocationsPerExchange)
{
    // Acoustic runs one halo exchange per PE per time step. Differencing
    // over steps and over grid sizes leaves the allocations of one
    // exchange on one PE.
    auto extraSteps = [](int n) {
        return measure(n, 12).run - measure(n, 4).run;
    };
    const double exchanges = (16.0 * 16.0 - 8.0 * 8.0) * 8.0;
    const double perExchange =
        static_cast<double>(extraSteps(16) - extraSteps(8)) / exchanges;
    std::printf("marginal run-phase allocations per exchange: %.2f\n",
                perExchange);
    EXPECT_LE(perExchange, 2.5);
}

} // namespace
} // namespace wsc::test
