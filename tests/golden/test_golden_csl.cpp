/**
 * @file
 * Golden-file locks on the CSL emitter output and on simulated cycle
 * counts for all five paper workloads (Jacobian, heat diffusion,
 * acoustic, seismic, UVKBE).
 *
 * The emitted `pe.csl`/`layout.csl` bytes are compared verbatim against
 * the files in tests/golden/, locking the byte-exact format that PR 2's
 * single-buffer emitter rewrite preserved; the final simulator cycle of
 * a small compiled run is locked the same way, so an IR or interpreter
 * change that alters behaviour (not just speed) fails here first. The
 * property corpus (tests/property_cases.h) adds a timing table beyond
 * the five workloads: final cycle, activations, receive callbacks and
 * step marks per case, at threads 1 and 4.
 *
 * Regenerating after an intentional format change:
 *
 *     WSC_UPDATE_GOLDEN=1 ./build/wsc_golden_tests
 *
 * then review the diff of tests/golden/ before committing (see the
 * top-level README, "Golden files").
 */

#include "test_helpers.h"

#include <fstream>
#include <sstream>

#include "baselines/handwritten_seismic.h"
#include "codegen/csl_emitter.h"
#include "property_cases.h"
#include "support/env.h"

namespace wsc::test {
namespace {

bool
updateRequested()
{
    return envFlag("WSC_UPDATE_GOLDEN");
}

std::string
goldenPath(const std::string &file)
{
    return std::string(WSC_GOLDEN_DIR) + "/" + file;
}

/** First byte offset where the two strings differ. */
size_t
firstMismatch(const std::string &a, const std::string &b)
{
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return n;
}

void
checkGolden(const std::string &file, const std::string &actual)
{
    std::string path = goldenPath(file);
    if (updateRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.is_open()) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open())
        << "missing golden file " << path
        << " — regenerate with WSC_UPDATE_GOLDEN=1 ./wsc_golden_tests";
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string expected = buf.str();
    if (expected == actual)
        return;
    size_t at = firstMismatch(expected, actual);
    size_t from = at < 40 ? 0 : at - 40;
    ADD_FAILURE() << file << " differs from golden ("
                  << expected.size() << " golden bytes vs "
                  << actual.size() << " actual); first mismatch at byte "
                  << at << ":\n  golden: ..."
                  << expected.substr(from, 80) << "...\n  actual: ..."
                  << actual.substr(from, 80)
                  << "...\nIf the change is intentional, regenerate with "
                     "WSC_UPDATE_GOLDEN=1 and review the diff.";
}

class GoldenCslTest : public IrTest
{
  protected:
    codegen::EmittedCsl
    emit(fe::Benchmark &bench)
    {
        ir::OwningOp module = bench.program.emit(ctx);
        transforms::runPipeline(module.get());
        return codegen::emitCsl(module.get());
    }

    /**
     * Timing of a compiled-mode run: the final cycle, task activations,
     * receive callbacks and every PE's step marks summed. Event counts
     * are left out: they measure the engine, not the timing model.
     */
    struct Timing
    {
        wse::Cycles cycle = 0;
        uint64_t activations = 0;
        uint64_t recvCallbacks = 0;
        wse::Cycles marks = 0;
    };

    /** Compile `bench` with `options` and run it on an nx x ny fabric. */
    Timing
    simulate(fe::Benchmark &bench, int nx, int ny, int threads = 1,
             const transforms::PipelineOptions &options = {})
    {
        ir::OwningOp module = bench.program.emit(ctx);
        transforms::runPipeline(module.get(), options);
        wse::SimOptions simOptions;
        simOptions.threads = threads;
        wse::Simulator sim(wse::ArchParams::wse3(), nx, ny, simOptions);
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
        Timing t;
        t.cycle = sim.runWithReport(4000000000ULL).finalCycle;
        t.activations = sim.stats().taskActivations;
        for (const auto &site : instance.commSites())
            t.recvCallbacks += site->stats().recvCallbacks;
        for (int x = 0; x < nx; ++x)
            for (int y = 0; y < ny; ++y)
                for (wse::Cycles c : instance.stepMarks(x, y))
                    t.marks += c;
        return t;
    }

    /** The property corpus's timing table, one line per case. */
    std::string
    propertyTimingTable(int threads)
    {
        std::ostringstream os;
        for (const PropertyCase &pc : propertyCases()) {
            fe::Benchmark bench = makePropertyBenchmark(pc);
            transforms::PipelineOptions options;
            options.forceNumChunks = pc.forceChunks;
            Timing t = simulate(bench, pc.nx, pc.ny, threads, options);
            os << propertyCaseName(pc) << ": cycle " << t.cycle
               << " activations " << t.activations << " recv_callbacks "
               << t.recvCallbacks << " marks " << t.marks << "\n";
        }
        return os.str();
    }
};

TEST_F(GoldenCslTest, SeismicEmittedBytes)
{
    fe::Benchmark bench = fe::makeSeismic(16, 16, 8, 20);
    codegen::EmittedCsl csl = emit(bench);
    checkGolden("seismic_pe.csl", csl.programFile);
    checkGolden("seismic_layout.csl", csl.layoutFile);
}

TEST_F(GoldenCslTest, DiffusionEmittedBytes)
{
    fe::Benchmark bench = fe::makeDiffusion(16, 16, 8, 16);
    codegen::EmittedCsl csl = emit(bench);
    checkGolden("diffusion_pe.csl", csl.programFile);
    checkGolden("diffusion_layout.csl", csl.layoutFile);
}

TEST_F(GoldenCslTest, JacobianEmittedBytes)
{
    fe::Benchmark bench = fe::makeJacobian(16, 16, 8, 24);
    codegen::EmittedCsl csl = emit(bench);
    checkGolden("jacobian_pe.csl", csl.programFile);
    checkGolden("jacobian_layout.csl", csl.layoutFile);
}

TEST_F(GoldenCslTest, AcousticEmittedBytes)
{
    fe::Benchmark bench = fe::makeAcoustic(16, 16, 8, 24);
    codegen::EmittedCsl csl = emit(bench);
    checkGolden("acoustic_pe.csl", csl.programFile);
    checkGolden("acoustic_layout.csl", csl.layoutFile);
}

TEST_F(GoldenCslTest, UvkbeEmittedBytes)
{
    fe::Benchmark bench = fe::makeUvkbe(16, 16, 24);
    codegen::EmittedCsl csl = emit(bench);
    checkGolden("uvkbe_pe.csl", csl.programFile);
    checkGolden("uvkbe_layout.csl", csl.layoutFile);
}

TEST_F(GoldenCslTest, SimulatedCycleCounts)
{
    fe::Benchmark jacobian = fe::makeJacobian(7, 7, 4, 64);
    fe::Benchmark diffusion = fe::makeDiffusion(7, 7, 4, 16);
    fe::Benchmark acoustic = fe::makeAcoustic(8, 8, 3, 32);
    fe::Benchmark seismic = fe::makeSeismic(8, 8, 3, 20);
    fe::Benchmark uvkbe = fe::makeUvkbe(8, 8, 24);
    std::ostringstream os;
    os << "jacobian_7x7x4: " << simulate(jacobian, 7, 7).cycle << "\n"
       << "diffusion_7x7x4: " << simulate(diffusion, 7, 7).cycle << "\n"
       << "acoustic_8x8x3: " << simulate(acoustic, 8, 8).cycle << "\n"
       << "seismic_8x8x3: " << simulate(seismic, 8, 8).cycle << "\n"
       << "uvkbe_8x8: " << simulate(uvkbe, 8, 8).cycle << "\n";
    checkGolden("cycle_counts.txt", os.str());
}

TEST_F(GoldenCslTest, SimulatedCycleCountsShardedMatch)
{
    // The sharded engine must land on exactly the golden cycle counts:
    // a threads=4 run of every locked workload reproduces them.
    fe::Benchmark jacobian = fe::makeJacobian(7, 7, 4, 64);
    fe::Benchmark diffusion = fe::makeDiffusion(7, 7, 4, 16);
    fe::Benchmark acoustic = fe::makeAcoustic(8, 8, 3, 32);
    fe::Benchmark seismic = fe::makeSeismic(8, 8, 3, 20);
    fe::Benchmark uvkbe = fe::makeUvkbe(8, 8, 24);
    std::ostringstream os;
    os << "jacobian_7x7x4: " << simulate(jacobian, 7, 7, 4).cycle << "\n"
       << "diffusion_7x7x4: " << simulate(diffusion, 7, 7, 4).cycle << "\n"
       << "acoustic_8x8x3: " << simulate(acoustic, 8, 8, 4).cycle << "\n"
       << "seismic_8x8x3: " << simulate(seismic, 8, 8, 4).cycle << "\n"
       << "uvkbe_8x8: " << simulate(uvkbe, 8, 8, 4).cycle << "\n";
    if (updateRequested())
        return; // cycle_counts.txt is written by the threads=1 lock.
    checkGolden("cycle_counts.txt", os.str());
}

TEST_F(GoldenCslTest, PropertyTimingTable)
{
    checkGolden("property_timing.txt", propertyTimingTable(1));
}

TEST_F(GoldenCslTest, PropertyTimingTableShardedMatch)
{
    std::string table = propertyTimingTable(4);
    if (updateRequested())
        return; // property_timing.txt is written by the threads=1 lock.
    checkGolden("property_timing.txt", table);
}

TEST_F(GoldenCslTest, HandwrittenSeismicPerSectionLock)
{
    // The hand-written comparator is the only workload that runs the
    // exchange in per-section mode (one receive task per landed
    // section); lock its final cycle, event/comms counts and timing.
    const int N = 10;
    fe::Benchmark bench = fe::makeSeismic(N, N, 4, 24);
    wse::Simulator sim(wse::ArchParams::wse2(), N, N);
    baselines::HandwrittenSeismicConfig config;
    config.nz = 24;
    config.timesteps = 4;
    baselines::HandwrittenSeismic hw(sim, config);
    hw.setInit(bench.init);
    hw.configure();
    hw.launch();
    EXPECT_EQ(sim.runWithReport(4000000000ULL).finalCycle, 8024u);

    const wse::SimStats &stats = sim.stats();
    EXPECT_EQ(stats.eventsProcessed, 3616u);
    EXPECT_EQ(stats.taskActivations, 1412u);
    EXPECT_EQ(stats.waveletsSent, 10752u);
    const comms::StarCommStats &cs = hw.comm().stats();
    EXPECT_EQ(cs.recvCallbacks, 512u);
    EXPECT_EQ(cs.chunksDelivered, 512u);
    // Every PE's per-step dispatch cycles, summed: catches a timing shift
    // the final cycle absorbs.
    wse::Cycles marks = 0;
    for (int x = 0; x < N; ++x)
        for (int y = 0; y < N; ++y)
            for (wse::Cycles c : hw.stepMarks(x, y))
                marks += c;
    EXPECT_EQ(marks, 198424u);
    // Every receive activation's ready cycle (its section's landing
    // cycle), summed: a landing shift the busy PE absorbs before
    // dispatch still moves it.
    wse::Cycles landings = 0;
    for (int x = 0; x < N; ++x)
        for (int y = 0; y < N; ++y)
            for (wse::Cycles c : hw.recvReadyMarks(x, y))
                landings += c;
    EXPECT_EQ(landings, 1847296u);
}

} // namespace
} // namespace wsc::test
