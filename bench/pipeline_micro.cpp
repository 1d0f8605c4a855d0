/**
 * Compile-time micro-benchmarks (google-benchmark): cost of the
 * individual pipeline stages and the full lowering per benchmark.
 */

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <memory>

#include "bench_common.h"
#include "codegen/csl_emitter.h"
#include "dialects/all.h"
#include "interp/csl_interpreter.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

using namespace wsc;

namespace {

/** Minor page faults of this process so far (all threads). */
double
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_minflt);
}

/** The per-iteration mean of a minor-fault delta, as the minflt
 *  counter. */
void
setMinorFaults(benchmark::State &state, double faults)
{
    state.counters["minflt"] =
        benchmark::Counter(faults, benchmark::Counter::kAvgIterations);
}

void
BM_FrontendEmit(benchmark::State &state)
{
    fe::Benchmark bench = fe::makeSeismic(100, 100, 12);
    for (auto _ : state) {
        ir::Context ctx;
        dialects::registerAllDialects(ctx);
        ir::OwningOp module = bench.program.emit(ctx);
        benchmark::DoNotOptimize(module.get());
    }
}
BENCHMARK(BM_FrontendEmit);

void
BM_IrConstruction(benchmark::State &state)
{
    // Raw IR build/teardown cost with a warm context: every iteration
    // creates a module, a 2000-op chain with constants and attributes,
    // and destroys it, so steady state is served entirely from the
    // arena free lists (see ir/arena.h).
    namespace bt = wsc::dialects::builtin;
    namespace ar = wsc::dialects::arith;
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    for (auto _ : state) {
        ir::OwningOp module = bt::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(&module->region(0).front());
        ir::Value acc = ar::createConstantF32(b, 1.0);
        for (int i = 0; i < 999; ++i) {
            ir::Value c = ar::createConstantF32(b, (i & 7) * 0.5);
            acc = ar::createAddF(b, acc, c);
        }
        benchmark::DoNotOptimize(module.get());
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_IrConstruction);

void
BM_FullPipeline(benchmark::State &state)
{
    const char *names[] = {"Jacobian", "Diffusion", "Acoustic",
                           "Seismic", "UVKBE"};
    const char *name = names[state.range(0)];
    fe::Benchmark bench = bench::paperBenchmark(name, 100, 100, 12);
    for (auto _ : state) {
        ir::Context ctx;
        dialects::registerAllDialects(ctx);
        ir::OwningOp module = bench.program.emit(ctx);
        transforms::runPipeline(module.get());
        benchmark::DoNotOptimize(module.get());
    }
    state.SetLabel(name);
}
BENCHMARK(BM_FullPipeline)->DenseRange(0, 4);

void
BM_CslEmission(benchmark::State &state)
{
    fe::Benchmark bench = fe::makeSeismic(100, 100, 12);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    for (auto _ : state) {
        codegen::EmittedCsl csl = codegen::emitCsl(module.get());
        benchmark::DoNotOptimize(csl.programFile.data());
    }
}
BENCHMARK(BM_CslEmission);

void
BM_SchedulerThroughput(benchmark::State &state)
{
    // Raw event-queue throughput: schedule and run N no-op events per
    // iteration. The schedule path must not allocate for inline-sized
    // callbacks, so this measures queue plus dispatch cost only.
    const int64_t n = state.range(0);
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    uint64_t sink = 0;
    for (auto _ : state) {
        wse::Cycles base = sim.now();
        for (int64_t i = 0; i < n; ++i)
            sim.schedule(base + static_cast<wse::Cycles>(i % 64),
                         [&sink] { sink++; });
        sim.runWithReport();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerThroughput)->Arg(1 << 14);

void
BM_ShardedTimestep(benchmark::State &state)
{
    // Wall-clock scaling of the sharded engine on a large-fabric
    // acoustic workload (24x24 PEs); the argument is SimOptions::
    // threads. Results are cycle-identical across thread counts (see
    // the ShardedDeterminism suite); only host time changes. On a
    // single-core container the >1-thread runs serialize and mainly
    // measure barrier overhead.
    const int threads = static_cast<int>(state.range(0));
    fe::Benchmark bench = fe::makeAcoustic(24, 24, 8, 128);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    for (auto _ : state) {
        wse::Simulator sim(wse::ArchParams::wse3(), 24, 24,
                           wse::SimOptions{threads});
        interp::CslProgramInstance instance(sim, module.get());
        auto init = bench.init;
        instance.setFieldInit("p", [init](int x, int y, int z) {
            return init(0, x, y, z);
        });
        instance.configure();
        instance.launch();
        sim.runWithReport(4000000000ULL);
        benchmark::DoNotOptimize(sim.now());
    }
    state.SetLabel("acoustic 24x24");
    // Not "threads": that key is google-benchmark's own JSON field.
    state.counters["sim_threads"] = threads;
}
BENCHMARK(BM_ShardedTimestep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_ShardedTimestep2D(benchmark::State &state)
{
    // The paper-scale trajectory bench: a 96x96 acoustic grid split
    // into `threads` column strips (arg 0; 1 is the sequential
    // baseline). Results are bit-identical across every row (pinned by
    // ShardedScale.Acoustic96Grid). The timed region is the run phase
    // only (launch + run): simulator construction, configure() and
    // teardown are serial and excluded, with construction + configure
    // reported as the setup_ms counter.
    using Clock = std::chrono::steady_clock;
    const int threads = static_cast<int>(state.range(0));
    fe::Benchmark bench = fe::makeAcoustic(96, 96, 2, 8);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    uint64_t windows = 0;
    double setupMs = 0.0;
    // Every iteration, set-up and teardown included: a heap that is
    // trimmed and regrown per job shows up here, not in the timing.
    const double faults = minorFaults();
    for (auto _ : state) {
        state.PauseTiming();
        Clock::time_point start = Clock::now();
        auto sim = std::make_unique<wse::Simulator>(
            wse::ArchParams::wse3(), 96, 96, wse::SimOptions{threads});
        auto instance = std::make_unique<interp::CslProgramInstance>(
            *sim, module.get());
        auto init = bench.init;
        instance->setFieldInit("p", [init](int x, int y, int z) {
            return init(0, x, y, z);
        });
        instance->configure();
        setupMs += std::chrono::duration<double, std::milli>(Clock::now() -
                                                             start)
                       .count();
        state.ResumeTiming();

        instance->launch();
        sim->runWithReport(4000000000ULL);
        benchmark::DoNotOptimize(sim->now());

        state.PauseTiming();
        windows = sim->telemetry().windows;
        instance.reset();
        sim.reset();
        state.ResumeTiming();
    }
    state.SetLabel(threads == 1 ? "acoustic 96x96 sequential"
                                : "acoustic 96x96 strips");
    state.counters["sim_threads"] = threads;
    state.counters["windows"] = static_cast<double>(windows);
    state.counters["setup_ms"] =
        benchmark::Counter(setupMs, benchmark::Counter::kAvgIterations);
    setMinorFaults(state, minorFaults() - faults);
}
BENCHMARK(BM_ShardedTimestep2D)
    ->Arg(1) // sequential baseline
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_InterpDispatch(benchmark::State &state)
{
    // Interpreter dispatch microbench: one simulated workload executed
    // through the reference tree-walker (arg 0) and the compiled
    // dispatch loop (arg 1). The simulated results are bit-identical
    // (see the InterpTiers suite); only host time differs.
    const bool reference = state.range(0) == 0;
    fe::Benchmark bench = fe::makeJacobian(7, 7, 64, 64);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    for (auto _ : state) {
        wse::Simulator sim(wse::ArchParams::wse3(), 7, 7);
        interp::CslProgramInstance instance(sim, module.get());
        instance.setReferenceMode(reference);
        auto init = bench.init;
        instance.setFieldInit("a", [init](int x, int y, int z) {
            return init(0, x, y, z);
        });
        instance.configure();
        instance.launch();
        sim.runWithReport(4000000000ULL);
        benchmark::DoNotOptimize(sim.now());
    }
    state.SetLabel(reference ? "reference" : "compiled");
}
BENCHMARK(BM_InterpDispatch)
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedTimestep(benchmark::State &state)
{
    // Simulator throughput: one steady-state timestep of Jacobian on a
    // 7x7 sub-grid (host wall-clock per simulated step).
    fe::Benchmark bench = fe::makeJacobian(7, 7, 64, 64);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    const double faults = minorFaults();
    for (auto _ : state) {
        wse::Simulator sim(wse::ArchParams::wse3(), 7, 7);
        interp::CslProgramInstance instance(sim, module.get());
        auto init = bench.init;
        instance.setFieldInit("a", [init](int x, int y, int z) {
            return init(0, x, y, z);
        });
        instance.configure();
        instance.launch();
        sim.runWithReport(4000000000ULL);
        benchmark::DoNotOptimize(sim.now());
    }
    state.counters["steps"] = 64;
    setMinorFaults(state, minorFaults() - faults);
}
BENCHMARK(BM_SimulatedTimestep)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
