/**
 * @file
 * Concurrent compile-service suite (`ctest -L service`).
 *
 * The differential contract: every artifact produced by the service —
 * any worker count, any request interleaving, recycled contexts, cache
 * hits, evicted-and-recompiled entries — must be byte-identical to a
 * cold single-threaded compile of the same request, and malformed
 * requests must fail their own job with exactly the diagnostics the
 * single-shot PR 7 corpus locks in, without poisoning the worker or
 * its context. Run under the tsan preset to prove the cache and queue
 * synchronization.
 */

#include "test_helpers.h"

#include <future>
#include <stdexcept>
#include <vector>

#include "codegen/csl_emitter.h"
#include "frontends/fortran_frontend.h"
#include "ir/diagnostics.h"
#include "ir/module_hash.h"
#include "service/compile_service.h"
#include "service/workload_requests.h"

namespace wsc::test {
namespace {

namespace bt = dialects::builtin;
namespace st = dialects::stencil;

constexpr int64_t kNx = 8, kNy = 8, kSteps = 2;

/** Cold oracle: compile `request` single-threaded in a fresh context. */
codegen::EmittedCsl
coldCompile(const service::CompileRequest &request)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::DiagnosticCollector collector(ctx);
    ir::OwningOp module = request.build(ctx);
    EXPECT_TRUE(module) << request.name;
    EXPECT_TRUE(ir::succeeded(ir::verify(module.get())));
    ir::PipelineResult result =
        transforms::runPipeline(module.get(), request.options);
    EXPECT_TRUE(result.succeeded) << result.str();
    return codegen::emitCsl(module.get());
}

void
expectBytesEqual(const codegen::EmittedCsl &got,
                 const codegen::EmittedCsl &want)
{
    EXPECT_EQ(got.layoutFile, want.layoutFile);
    EXPECT_EQ(got.programFile, want.programFile);
    EXPECT_FALSE(got.programFile.empty());
}

//===----------------------------------------------------------------------===
// Malformed corpora — the exact PR 7 single-shot cases, now as requests
//===----------------------------------------------------------------------===

struct BadIrCase
{
    const char *name;
    std::function<ir::OwningOp(ir::Context &)> build;
    const char *expectPass;
    const char *expectMessage;
};

std::vector<BadIrCase>
badIrCorpus()
{
    return {
        {"diagonal access",
         [](ir::Context &c) {
             fe::Program p(fe::Grid{8, 8, 16});
             p.setTimesteps(2);
             fe::Field u = p.addField("u");
             p.setUpdate(u, u.at(1, 1, 0));
             return p.emit(c);
         },
         "distribute-stencil", "box-shaped"},
        {"remote z offset",
         [](ir::Context &c) {
             fe::Program p(fe::Grid{8, 8, 16});
             p.setTimesteps(2);
             fe::Field u = p.addField("u");
             p.setUpdate(u, u.at(1, 0, 1));
             return p.emit(c);
         },
         "distribute-stencil", "z offset"},
        {"multiplicative remote/local mix",
         [](ir::Context &c) {
             fe::Program p(fe::Grid{8, 8, 16});
             p.setTimesteps(2);
             fe::Field u = p.addField("u");
             p.setUpdate(u, u.at(1, 0, 0) * u.at(0, 0, 0));
             return p.emit(c);
         },
         "convert-stencil-to-csl-stencil", "addition"},
        {"unsupported op in apply body",
         [](ir::Context &c) {
             fe::Program p(fe::Grid{8, 8, 16});
             p.setTimesteps(2);
             fe::Field u = p.addField("u");
             p.setUpdate(u, fe::constant(0.5) *
                                (u.at(0, 0, 1) + u.at(0, 0, -1)));
             ir::OwningOp module = p.emit(c);
             ir::Operation *apply = firstOp(module.get(), st::kApply);
             EXPECT_NE(apply, nullptr);
             if (!apply)
                 return module;
             ir::OpBuilder b(c);
             b.setInsertionPoint(st::applyBody(apply)->terminator());
             b.create("tensor.empty", {},
                      {ir::getTensorType(c, {4}, ir::getF32Type(c))});
             return module;
         },
         "tensorize-z", "unsupported op in apply body"},
        {"empty module (invariant violation)",
         [](ir::Context &c) { return bt::createModule(c); },
         "wrap-in-csl-wrapper", "internal error"},
    };
}

struct FortranCase
{
    const char *name;
    const char *source;
    const char *expectMessage;
    const char *expectLocation; // prefix match
};

std::vector<FortranCase>
fortranCorpus()
{
    return {
        {"unexpected character",
         "do i = 2, 11\n"
         " do j = 2, 11\n"
         "  do k = 2, 31\n"
         "   a(k,j,i) = @\n"
         "  enddo\n enddo\nenddo\n",
         "unexpected character '@'", "fortran:4:15"},
        {"absolute index",
         "do i = 2, 11\n"
         " do j = 2, 11\n"
         "  do k = 2, 31\n"
         "   a(k,j,i) = a(1,j,i)\n"
         "  enddo\n enddo\nenddo\n",
         "absolute indices", "fortran:4"},
        {"shallow loop nest",
         "do i = 2, 11\n"
         "enddo\n",
         "3-deep spatial loop nest", "fortran:"},
        {"off-centre assignment target",
         "do i = 2, 11\n"
         " do j = 2, 11\n"
         "  do k = 2, 31\n"
         "   a(k,j,i+1) = a(k,j,i)\n"
         "  enddo\n enddo\nenddo\n",
         "centre point", "fortran:4"},
        {"missing enddo",
         "do i = 2, 11\n"
         " do j = 2, 11\n"
         "  do k = 2, 31\n"
         "   a(k,j,i) = a(k-1,j,i)\n",
         "enddo", "fortran:"},
    };
}

const fe::FortranKernelConfig kFortranConfig{12, 12, 32, 2};

/** The error diagnostic of a failed reply (or nullptr). */
const ir::Diagnostic *
replyError(const service::CompileReply &reply)
{
    return reply.pipeline.firstError();
}

//===----------------------------------------------------------------------===
// Differential stress: N workers x all workloads x repeated rounds,
// hostile requests interleaved — every success byte-compared to the
// cold oracle, every failure compared to the PR 7 corpus.
//===----------------------------------------------------------------------===

void
runDifferentialStress(int threads, int rounds)
{
    std::vector<service::CompileRequest> workloads =
        service::allWorkloadRequests(kNx, kNy, kSteps);
    std::vector<codegen::EmittedCsl> cold;
    cold.reserve(workloads.size());
    for (const service::CompileRequest &request : workloads)
        cold.push_back(coldCompile(request));

    std::vector<BadIrCase> badIr = badIrCorpus();
    std::vector<FortranCase> badFortran = fortranCorpus();

    service::ServiceConfig config;
    config.threads = threads;
    service::CompileService svc(config);

    struct Pending
    {
        std::future<service::CompileReply> reply;
        size_t workload;       // index into `cold`, or SIZE_MAX
        const BadIrCase *ir;   // or nullptr
        const FortranCase *ft; // or nullptr
    };
    std::vector<Pending> pending;

    for (int round = 0; round < rounds; ++round) {
        for (size_t i = 0; i < workloads.size(); ++i) {
            // Interleave one hostile request per workload so failures
            // land on the same workers/contexts as the good compiles.
            const BadIrCase &bad = badIr[(round + i) % badIr.size()];
            service::CompileRequest badRequest;
            badRequest.name = bad.name;
            badRequest.build = bad.build;
            pending.push_back(
                {svc.submit(std::move(badRequest)), SIZE_MAX, &bad,
                 nullptr});

            pending.push_back(
                {svc.submit(workloads[i]), i, nullptr, nullptr});

            const FortranCase &hostile =
                badFortran[(round + i) % badFortran.size()];
            pending.push_back(
                {svc.submit(service::fortranRequest(
                     hostile.name, hostile.source, kFortranConfig)),
                 SIZE_MAX, nullptr, &hostile});
        }
    }

    for (Pending &p : pending) {
        service::CompileReply reply = p.reply.get();
        if (p.workload != SIZE_MAX) {
            SCOPED_TRACE(reply.name);
            ASSERT_TRUE(reply.ok) << reply.error;
            ASSERT_NE(reply.artifact, nullptr);
            expectBytesEqual(reply.artifact->csl, cold[p.workload]);
            continue;
        }
        ASSERT_FALSE(reply.ok);
        EXPECT_EQ(reply.artifact, nullptr);
        const ir::Diagnostic *err = replyError(reply);
        ASSERT_NE(err, nullptr) << reply.name;
        if (p.ir) {
            SCOPED_TRACE(p.ir->name);
            EXPECT_EQ(reply.pipeline.failedPass, p.ir->expectPass)
                << reply.pipeline.str();
            EXPECT_NE(err->message.find(p.ir->expectMessage),
                      std::string::npos)
                << err->str();
        } else {
            SCOPED_TRACE(p.ft->name);
            EXPECT_EQ(reply.pipeline.failedPass, "frontend")
                << reply.pipeline.str();
            EXPECT_NE(err->message.find(p.ft->expectMessage),
                      std::string::npos)
                << err->str();
            EXPECT_EQ(err->location.rfind(p.ft->expectLocation, 0), 0u)
                << err->location;
        }
    }

    service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<uint64_t>(pending.size()));
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.failed,
              static_cast<uint64_t>(2 * rounds * workloads.size()));
    // One context per worker, built on its first job and recycled for
    // every later one.
    EXPECT_LE(stats.contextsCreated,
              static_cast<uint64_t>(threads));
    EXPECT_EQ(stats.contextsCreated + stats.contextsRecycled,
              stats.completed);
    EXPECT_GT(stats.contextsRecycled, 0u);
    if (threads == 1) {
        // Serial FIFO: every workload round after the first is a hit.
        EXPECT_EQ(stats.cache.hits,
                  static_cast<uint64_t>((rounds - 1) *
                                        workloads.size()));
    }
}

TEST(ServiceStressTest, DifferentialSingleWorker)
{
    runDifferentialStress(/*threads=*/1, /*rounds=*/3);
}

TEST(ServiceStressTest, DifferentialEightWorkers)
{
    runDifferentialStress(/*threads=*/8, /*rounds=*/3);
}

TEST(ServiceStressTest, ValidFortranCompilesThroughService)
{
    const char *source =
        "do i = 2, 11\n"
        " do j = 2, 11\n"
        "  do k = 2, 31\n"
        "   a(k,j,i) = 0.5 * (a(k,j,i-1) + a(k,j,i+1))\n"
        "  enddo\n enddo\nenddo\n";
    service::CompileRequest request = service::fortranRequest(
        "fortran-valid", source, kFortranConfig);
    codegen::EmittedCsl cold = coldCompile(request);

    service::CompileService svc;
    service::CompileReply reply = svc.compile(std::move(request));
    ASSERT_TRUE(reply.ok) << reply.error;
    expectBytesEqual(reply.artifact->csl, cold);
}

//===----------------------------------------------------------------------===
// Failure semantics: a failed job leaves its worker and context reusable
//===----------------------------------------------------------------------===

TEST(ServiceFailureTest, FailedJobLeavesWorkerReusable)
{
    service::CompileService svc; // one worker, one context
    for (const BadIrCase &bad : badIrCorpus()) {
        SCOPED_TRACE(bad.name);
        service::CompileRequest request;
        request.name = bad.name;
        request.build = bad.build;
        service::CompileReply reply = svc.compile(std::move(request));
        ASSERT_FALSE(reply.ok);
        EXPECT_EQ(reply.pipeline.failedPass, bad.expectPass);

        // The very next job on the same (recycled) context must match
        // the cold oracle byte for byte.
        service::CompileRequest good = service::benchmarkRequest(
            fe::makeDiffusion(kNx, kNy, kSteps, 16));
        good.bypassCache = true; // force a real compile every round
        codegen::EmittedCsl cold = coldCompile(good);
        service::CompileReply ok = svc.compile(std::move(good));
        ASSERT_TRUE(ok.ok) << ok.error;
        expectBytesEqual(ok.artifact->csl, cold);
    }
    EXPECT_EQ(svc.stats().contextsCreated, 1u);
}

TEST(ServiceFailureTest, FrontendThrowBecomesFailedReply)
{
    service::CompileService svc;
    service::CompileRequest request;
    request.name = "throwing-frontend";
    request.build = [](ir::Context &) -> ir::OwningOp {
        throw FatalError("frontend blew up");
    };
    service::CompileReply reply = svc.compile(std::move(request));
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.pipeline.failedPass, "frontend");
    ASSERT_NE(replyError(reply), nullptr);
    EXPECT_NE(replyError(reply)->message.find("frontend blew up"),
              std::string::npos);
}

TEST(ServiceFailureTest, FrontendPanicBecomesInternalErrorReply)
{
    service::CompileService svc;
    service::CompileRequest request;
    request.name = "panicking-frontend";
    request.build = [](ir::Context &) -> ir::OwningOp {
        WSC_ASSERT(false, "simulated frontend invariant violation");
        return ir::OwningOp();
    };
    service::CompileReply reply = svc.compile(std::move(request));
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.pipeline.failedPass, "frontend");
    ASSERT_NE(replyError(reply), nullptr);
    EXPECT_NE(replyError(reply)->message.find("internal error"),
              std::string::npos);
}

/**
 * Run a request whose build callback throws on a 1-worker service. The
 * reply fails in "frontend" with a diagnostic containing `expect`, and
 * a valid compile on the same worker still matches the cold oracle.
 */
void
expectFrontendFailure(std::function<ir::OwningOp(ir::Context &)> build,
                      const std::string &expect)
{
    service::CompileService svc;
    service::CompileRequest request;
    request.name = "throwing-frontend";
    request.build = std::move(build);
    service::CompileReply reply = svc.compile(std::move(request));
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.pipeline.failedPass, "frontend");
    ASSERT_NE(replyError(reply), nullptr);
    EXPECT_NE(replyError(reply)->message.find(expect), std::string::npos)
        << replyError(reply)->message;

    service::CompileRequest good = service::benchmarkRequest(
        fe::makeDiffusion(kNx, kNy, kSteps, 16));
    codegen::EmittedCsl cold = coldCompile(good);
    service::CompileReply ok = svc.compile(std::move(good));
    ASSERT_TRUE(ok.ok) << ok.error;
    expectBytesEqual(ok.artifact->csl, cold);
    EXPECT_EQ(svc.stats().contextsCreated, 1u);
}

TEST(ServiceFailureTest, FrontendStdExceptionBecomesFailedReply)
{
    expectFrontendFailure(
        [](ir::Context &) -> ir::OwningOp {
            throw std::out_of_range("frontend index out of range");
        },
        "frontend index out of range");
}

TEST(ServiceFailureTest, FrontendNonStdThrowBecomesFailedReply)
{
    expectFrontendFailure(
        [](ir::Context &) -> ir::OwningOp { throw 42; },
        "unknown exception");
}

TEST(ServiceFailureTest, VerifierRejectionIsAFailedReply)
{
    service::CompileService svc;
    service::CompileRequest request;
    request.name = "invalid-ir";
    request.build = [](ir::Context &c) {
        ir::OwningOp module = bt::createModule(c);
        ir::OpBuilder b(c);
        b.setInsertionPointToEnd(bt::moduleBody(module.get()));
        b.create("arith.constant", {}, {ir::getF32Type(c)});
        return module;
    };
    service::CompileReply reply = svc.compile(std::move(request));
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.pipeline.failedPass, "verify");
    ASSERT_NE(replyError(reply), nullptr);
    EXPECT_NE(replyError(reply)->message.find("value attribute"),
              std::string::npos);
}

//===----------------------------------------------------------------------===
// Failure semantics: a simulation that cannot run or complete is a
// failed reply, never a dead service
//===----------------------------------------------------------------------===

/** The Jacobian workload as a request simulated on its own grid. */
service::CompileRequest
simulatingRequest()
{
    return service::allWorkloadRequests(kNx, kNy, kSteps, true)[0];
}

/**
 * Run `bad`, a simulating request whose simulation fails, on a 1-worker
 * service. The reply fails in "simulate" with a diagnostic containing
 * `expect`, nothing is cached, and a valid simulating compile on the
 * same worker still matches the cold oracle.
 */
void
expectSimulationFailure(service::CompileRequest bad,
                        const std::string &expect)
{
    service::CompileService svc;
    service::CompileReply reply = svc.compile(std::move(bad));
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(reply.artifact, nullptr);
    EXPECT_EQ(reply.pipeline.failedPass, "simulate");
    const ir::Diagnostic *err = replyError(reply);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->pass, "simulate");
    EXPECT_NE(err->message.find(expect), std::string::npos)
        << err->message;
    EXPECT_NE(reply.error.find("simulate"), std::string::npos)
        << reply.error;
    EXPECT_EQ(svc.cache().size(), 0u);

    service::CompileRequest good = simulatingRequest();
    codegen::EmittedCsl cold = coldCompile(good);
    service::CompileReply ok = svc.compile(std::move(good));
    ASSERT_TRUE(ok.ok) << ok.error;
    ASSERT_TRUE(ok.artifact->sim.simulated);
    EXPECT_GT(ok.artifact->sim.finalCycle, 0u);
    expectBytesEqual(ok.artifact->csl, cold);
    EXPECT_EQ(svc.cache().size(), 1u);
    EXPECT_EQ(svc.stats().contextsCreated, 1u);
}

TEST(ServiceFailureTest, EmptySimulationGridIsAFailedReply)
{
    service::CompileRequest bad = simulatingRequest();
    bad.sim.nx = 0;
    expectSimulationFailure(std::move(bad), "empty PE grid");
}

TEST(ServiceFailureTest, SimulationGridBeyondTheFabricIsAFailedReply)
{
    service::CompileRequest bad = simulatingRequest();
    bad.sim.nx = 100000;
    expectSimulationFailure(std::move(bad), "exceeds the");
}

TEST(ServiceFailureTest, ExhaustedEventBudgetIsAFailedReply)
{
    service::CompileRequest bad = simulatingRequest();
    bad.sim.cycleBudget = 10;
    expectSimulationFailure(std::move(bad), "event-budget-exceeded");
}

TEST(ServiceFailureTest, ThrowingSimulationInitIsAFailedReply)
{
    // The initial conditions are evaluated inside configure().
    service::CompileRequest bad = simulatingRequest();
    bad.sim.init = [](int, int, int, int) -> float {
        throw std::runtime_error("initial condition unavailable");
    };
    expectSimulationFailure(std::move(bad), "initial condition unavailable");
}

//===----------------------------------------------------------------------===
// Artifact cache correctness
//===----------------------------------------------------------------------===

TEST(ServiceCacheTest, HitIsByteIdenticalWithSameCycleCount)
{
    service::CompileService svc;
    fe::Benchmark bench = fe::makeDiffusion(7, 7, 4, 16);
    service::CompileRequest request =
        service::benchmarkRequest(bench, /*simulate=*/true, 7, 7);

    service::CompileReply miss = svc.compile(request);
    ASSERT_TRUE(miss.ok) << miss.error;
    EXPECT_FALSE(miss.cacheHit);
    ASSERT_TRUE(miss.artifact->sim.simulated);
    EXPECT_GT(miss.artifact->sim.finalCycle, 0u);
    EXPECT_EQ(miss.artifact->sim.unblocks, 49u);

    service::CompileReply hit = svc.compile(request);
    ASSERT_TRUE(hit.ok) << hit.error;
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.key.lo, miss.key.lo);
    EXPECT_EQ(hit.key.hi, miss.key.hi);
    expectBytesEqual(hit.artifact->csl, miss.artifact->csl);
    EXPECT_EQ(hit.artifact->sim.finalCycle,
              miss.artifact->sim.finalCycle);

    // The cached cycle count is the real one: a bypass recompile (full
    // pipeline + fresh simulation) lands on the same final cycle.
    request.bypassCache = true;
    service::CompileReply fresh = svc.compile(request);
    ASSERT_TRUE(fresh.ok) << fresh.error;
    EXPECT_FALSE(fresh.cacheHit);
    expectBytesEqual(fresh.artifact->csl, miss.artifact->csl);
    EXPECT_EQ(fresh.artifact->sim.finalCycle,
              miss.artifact->sim.finalCycle);

    service::CacheStats stats = svc.cache().stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(ServiceCacheTest, CodegenOnlyEntryDoesNotServeSimRequests)
{
    service::CompileService svc;
    fe::Benchmark bench = fe::makeDiffusion(7, 7, 4, 16);

    service::CompileReply plain =
        svc.compile(service::benchmarkRequest(bench));
    ASSERT_TRUE(plain.ok);
    EXPECT_FALSE(plain.artifact->sim.simulated);

    // Same module + options but a simulation request: different sim
    // hash, different key — never served the unsimulated artifact.
    service::CompileReply simulated = svc.compile(
        service::benchmarkRequest(bench, /*simulate=*/true, 7, 7));
    ASSERT_TRUE(simulated.ok) << simulated.error;
    EXPECT_FALSE(simulated.cacheHit);
    EXPECT_FALSE(plain.key.lo == simulated.key.lo &&
                 plain.key.hi == simulated.key.hi);
    EXPECT_TRUE(simulated.artifact->sim.simulated);
    expectBytesEqual(simulated.artifact->csl, plain.artifact->csl);
}

TEST(ServiceCacheTest, DistinctOptionsAndArchNeverCollide)
{
    service::CompileService svc;
    fe::Benchmark bench = fe::makeDiffusion(kNx, kNy, kSteps, 16);

    service::CompileRequest base = service::benchmarkRequest(bench);

    service::CompileRequest noInline = service::benchmarkRequest(bench);
    noInline.options.enableStencilInlining = false;

    service::CompileRequest chunked = service::benchmarkRequest(bench);
    chunked.options.forceNumChunks = 4;

    service::CompileRequest wse2 = service::benchmarkRequest(bench);
    wse2.arch = wse::ArchParams::wse2();

    service::CompileReply r0 = svc.compile(base);
    service::CompileReply r1 = svc.compile(noInline);
    service::CompileReply r2 = svc.compile(chunked);
    service::CompileReply r3 = svc.compile(wse2);
    const service::CompileReply *replies[] = {&r0, &r1, &r2, &r3};
    for (const service::CompileReply *reply : replies)
        ASSERT_TRUE(reply->ok) << reply->error;

    // All four are misses (pairwise-distinct keys) and all four live in
    // the cache simultaneously.
    EXPECT_EQ(svc.cache().stats().hits, 0u);
    EXPECT_EQ(svc.cache().size(), 4u);
    for (size_t a = 0; a < 4; ++a)
        for (size_t b = a + 1; b < 4; ++b)
            EXPECT_FALSE(replies[a]->key.lo == replies[b]->key.lo &&
                         replies[a]->key.hi == replies[b]->key.hi)
                << a << " vs " << b;

    // And every variant still round-trips to a hit of its own entry.
    service::CompileReply again = svc.compile(noInline);
    EXPECT_TRUE(again.cacheHit);
    expectBytesEqual(again.artifact->csl, r1.artifact->csl);
}

TEST(ServiceCacheTest, EvictionUnderCapacityBoundRecompilesCorrectly)
{
    service::ServiceConfig config;
    config.cacheCapacity = 1; // single shard, single entry
    service::CompileService svc(config);

    service::CompileRequest a = service::benchmarkRequest(
        fe::makeJacobian(kNx, kNy, kSteps, 24));
    service::CompileRequest b = service::benchmarkRequest(
        fe::makeDiffusion(kNx, kNy, kSteps, 16));

    service::CompileReply first = svc.compile(a);
    ASSERT_TRUE(first.ok);
    service::CompileReply evictor = svc.compile(b);
    ASSERT_TRUE(evictor.ok);
    EXPECT_EQ(svc.cache().stats().evictions, 1u);
    EXPECT_EQ(svc.cache().size(), 1u);

    // `a` was evicted: the re-request is a miss and the recompiled
    // artifact is byte-identical to the original.
    service::CompileReply recompiled = svc.compile(a);
    ASSERT_TRUE(recompiled.ok);
    EXPECT_FALSE(recompiled.cacheHit);
    expectBytesEqual(recompiled.artifact->csl, first.artifact->csl);
    EXPECT_EQ(svc.cache().stats().evictions, 2u);
}

//===----------------------------------------------------------------------===
// Module fingerprint: stable across contexts and interning histories
//===----------------------------------------------------------------------===

TEST(ServiceFingerprintTest, StableAcrossContextsAndInterningHistory)
{
    fe::Benchmark bench = fe::makeDiffusion(kNx, kNy, kSteps, 16);

    ir::Context fresh;
    dialects::registerAllDialects(fresh);
    ir::ModuleFingerprint want;
    {
        ir::OwningOp module = bench.program.emit(fresh);
        want = ir::fingerprintModule(module.get());
    }

    // A context with a very different interning history (a full other
    // workload compiled first, then recycled) must agree: the
    // fingerprint depends on content, not on per-context intern ids.
    ir::Context dirty;
    dialects::registerAllDialects(dirty);
    {
        fe::Benchmark other = fe::makeSeismic(kNx, kNy, kSteps, 20);
        ir::OwningOp module = other.program.emit(dirty);
        ir::PipelineResult result =
            transforms::runPipeline(module.get());
        ASSERT_TRUE(result.succeeded) << result.str();
        EXPECT_NE(ir::fingerprintModule(module.get()), want);
    }
    dirty.reset();
    {
        ir::OwningOp module = bench.program.emit(dirty);
        EXPECT_EQ(ir::fingerprintModule(module.get()), want);
    }
}

TEST(ServiceFingerprintTest, ContentChangesChangeTheFingerprint)
{
    auto fingerprintOf = [](double coeff) {
        ir::Context ctx;
        dialects::registerAllDialects(ctx);
        fe::Program p(fe::Grid{8, 8, 16});
        p.setTimesteps(2);
        fe::Field u = p.addField("u");
        p.setUpdate(u, fe::constant(coeff) *
                           (u.at(0, 0, 1) + u.at(0, 0, -1)));
        ir::OwningOp module = p.emit(ctx);
        return ir::fingerprintModule(module.get());
    };
    // A single constant differing in the last bit must flip the key.
    EXPECT_NE(fingerprintOf(0.5), fingerprintOf(0.25));
    EXPECT_EQ(fingerprintOf(0.5), fingerprintOf(0.5));
}

//===----------------------------------------------------------------------===
// Context recycling: arena pages and intern pools plateau
//===----------------------------------------------------------------------===

TEST(ServiceResetTest, FiftyCompilesPerWorkloadPlateau)
{
    std::vector<service::CompileRequest> workloads =
        service::allWorkloadRequests(kNx, kNy, kSteps);
    for (service::CompileRequest &request : workloads) {
        SCOPED_TRACE(request.name);
        ir::Context ctx;
        dialects::registerAllDialects(ctx);

        codegen::EmittedCsl firstCsl;
        size_t plateauPages = 0;
        ir::Context::InternStats plateauIntern;
        for (int round = 0; round < 50; ++round) {
            {
                ir::DiagnosticCollector collector(ctx);
                ir::OwningOp module = request.build(ctx);
                ASSERT_TRUE(module);
                ir::PipelineResult result = transforms::runPipeline(
                    module.get(), request.options);
                ASSERT_TRUE(result.succeeded) << result.str();
                codegen::EmittedCsl csl =
                    codegen::emitCsl(module.get());
                if (round == 0)
                    firstCsl = csl;
                else
                    expectBytesEqual(csl, firstCsl);
            }
            ctx.reset();

            // The workload is identical every round, so after a warmup
            // round the retained arena pages and the intern-pool sizes
            // must stop growing entirely.
            if (round == 1) {
                plateauPages = ctx.arena().pageCount();
                plateauIntern = ctx.internStats();
                EXPECT_GT(plateauPages, 0u);
            } else if (round > 1) {
                EXPECT_EQ(ctx.arena().pageCount(), plateauPages)
                    << "arena grew on round " << round;
                ir::Context::InternStats now = ctx.internStats();
                EXPECT_EQ(now.types, plateauIntern.types);
                EXPECT_EQ(now.attrs, plateauIntern.attrs);
                EXPECT_EQ(now.attrNames, plateauIntern.attrNames);
            }
        }
        EXPECT_EQ(ctx.arena().resetCount(), 50u);
    }
}

TEST(ServiceResetTest, ResetRefusesWithHandlerInstalled)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::DiagnosticCollector collector(ctx);
    EXPECT_THROW(ctx.reset(), PanicError);
}

TEST(ServiceResetTest, WorkerBuildsOneContextThenRecyclesIt)
{
    service::CompileService svc; // one worker
    EXPECT_EQ(svc.stats().contextsCreated, 0u); // built on the first job

    // The second workload runs on the recycled context: its dialects
    // survive reset(), so emission needs no new setup.
    service::CompileReply first = svc.compile(service::benchmarkRequest(
        fe::makeDiffusion(kNx, kNy, kSteps, 16)));
    ASSERT_TRUE(first.ok) << first.error;
    service::CompileReply second = svc.compile(service::benchmarkRequest(
        fe::makeJacobian(kNx, kNy, kSteps, 24)));
    ASSERT_TRUE(second.ok) << second.error;

    service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.contextsCreated, 1u);
    EXPECT_EQ(stats.contextsRecycled, 1u);
}

} // namespace
} // namespace wsc::test
