#include "service/compile_service.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "dialects/all.h"
#include "interp/csl_interpreter.h"
#include "ir/module_hash.h"
#include "ir/verifier.h"
#include "support/error.h"
#include "wse/simulator.h"

namespace wsc::service {

namespace {

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
hashString(uint64_t h, const std::string &s)
{
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return mix64(h);
}

uint64_t
hashDouble(uint64_t h, double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return mix64(h ^ bits);
}

/** Every ArchParams field the emitted artifact or timing depends on. */
uint64_t
hashArch(const wse::ArchParams &arch)
{
    uint64_t h = 0x61726368ULL; // "arch"
    h = hashString(h, arch.name);
    h = mix64(h ^ static_cast<uint64_t>(arch.fabricWidth));
    h = mix64(h ^ static_cast<uint64_t>(arch.fabricHeight));
    h = hashDouble(h, arch.clockGHz);
    h = mix64(h ^ static_cast<uint64_t>(arch.peMemoryBytes));
    h = mix64(h ^ static_cast<uint64_t>(arch.readBytesPerCycle));
    h = mix64(h ^ static_cast<uint64_t>(arch.writeBytesPerCycle));
    h = mix64(h ^ arch.dsdSetupCycles);
    h = hashDouble(h, arch.f32ElemsPerCycle);
    h = mix64(h ^ static_cast<uint64_t>(arch.waveletBytes));
    h = mix64(h ^ arch.hopCycles);
    h = mix64(h ^ static_cast<uint64_t>(arch.linkWaveletsPerCycle));
    h = mix64(h ^ arch.taskActivateCycles);
    h = mix64(h ^ (arch.switchRequiresSelfTransmit ? 1 : 0));
    h = mix64(h ^ arch.switchReconfigCycles);
    return h;
}

uint64_t
hashSimRequest(const SimRequest &sim)
{
    if (!sim.run)
        return 0x6e6f73696dULL; // "nosim"
    uint64_t h = 0x73696dULL; // "sim"
    h = mix64(h ^ static_cast<uint64_t>(sim.nx));
    h = mix64(h ^ static_cast<uint64_t>(sim.ny));
    h = mix64(h ^ sim.cycleBudget);
    // Field inits are deliberately not keyed — see SimRequest's doc.
    return h;
}

/** One-line summary of a failed pipeline for CompileReply::error. */
std::string
summarize(const ir::PipelineResult &result)
{
    const ir::Diagnostic *err = result.firstError();
    std::string out = result.failedPass.empty()
                          ? std::string("compile failed")
                          : "failed in pass '" + result.failedPass + "'";
    if (err) {
        out += ": ";
        out += err->message;
    }
    return out;
}

/**
 * Simulate the compiled `module` as `request.sim` asks and record the
 * run in `out`. Returns why the simulation failed — any exception while
 * building, configuring or running it, or the diagnosis of a run that
 * did not complete — or an empty string on success.
 */
std::string
simulate(ir::Operation *module, const CompileRequest &request,
         SimConfig &out)
{
    try {
        wse::Simulator sim(request.arch, request.sim.nx, request.sim.ny);
        interp::CslProgramInstance instance(sim, module);
        for (size_t f = 0; f < request.sim.fields.size(); ++f) {
            int fi = static_cast<int>(f);
            auto init = request.sim.init;
            instance.setFieldInit(request.sim.fields[f],
                                  [init, fi](int x, int y, int z) {
                                      return init(fi, x, y, z);
                                  });
        }
        instance.configure();
        instance.launch();
        const wse::SimReport &report =
            sim.runWithReport(request.sim.cycleBudget);
        if (report.outcome != wse::SimOutcome::Completed)
            return report.diagnosis.toString();
        out.simulated = true;
        out.nx = request.sim.nx;
        out.ny = request.sim.ny;
        out.cycleBudget = request.sim.cycleBudget;
        out.finalCycle = report.finalCycle;
        out.unblocks = instance.unblockCount();
        return {};
    } catch (const FatalError &e) {
        return e.what();
    } catch (const PanicError &e) {
        return std::string("internal error: ") + e.what();
    } catch (const std::exception &e) {
        // E.g. a throwing SimRequest::init, called by configure().
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

CacheKey
makeCacheKey(const ir::ModuleFingerprint &fp, const CompileRequest &request)
{
    uint64_t opts = request.options.fingerprint();
    opts = mix64(opts ^ hashArch(request.arch));
    opts = mix64(opts ^ hashSimRequest(request.sim));
    CacheKey key;
    key.lo = mix64(fp.lo ^ opts);
    key.hi = mix64(fp.hi ^ (opts * 0xda942042e4dd58b5ULL));
    return key;
}

CompileService::CompileService(ServiceConfig config)
    : cache_(config.cacheCapacity)
{
    int threads = std::max(1, config.threads);
    workers_.reserve(threads);
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

std::future<CompileReply>
CompileService::submit(CompileRequest request)
{
    Job job;
    job.request = std::move(request);
    job.enqueued = std::chrono::steady_clock::now();
    std::future<CompileReply> future = job.promise.get_future();
    {
        std::lock_guard<std::mutex> lock(mu_);
        WSC_ASSERT(!stopping_, "submit on a stopping CompileService");
        queue_.push_back(std::move(job));
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_one();
    return future;
}

void
CompileService::workerLoop()
{
    // Built on the worker's first job rather than by the constructor,
    // so constructing the service costs no more than spawning threads.
    std::optional<ir::Context> ctx;
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        auto picked = std::chrono::steady_clock::now();
        if (ctx) {
            contextsRecycled_.fetch_add(1, std::memory_order_relaxed);
        } else {
            ctx.emplace();
            dialects::registerAllDialects(*ctx);
            contextsCreated_.fetch_add(1, std::memory_order_relaxed);
        }
        CompileReply reply = runJob(*ctx, std::move(job.request));
        ctx->reset();
        reply.queueMicros =
            std::chrono::duration<double, std::micro>(picked -
                                                      job.enqueued)
                .count();
        reply.workMicros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - picked)
                .count();
        completed_.fetch_add(1, std::memory_order_relaxed);
        (reply.ok ? succeeded_ : failed_)
            .fetch_add(1, std::memory_order_relaxed);
        job.promise.set_value(std::move(reply));
    }
}

CompileReply
CompileService::runJob(ir::Context &ctx, CompileRequest request)
{
    CompileReply reply;
    reply.name = request.name;

    // Declaration order matters: the module (arena-backed) must die
    // before the collector pops its handler, and both before the caller
    // resets the context.
    ir::DiagnosticCollector collector(ctx);
    ir::OwningOp module;
    const char *stage = "frontend";
    try {
        module = request.build(ctx);
    } catch (ir::DiagnosedError &e) {
        if (e.hasDiagnostic())
            ctx.diagnostics().report(e.takeDiagnostic());
        // else: already reported through the engine.
    } catch (const FatalError &e) {
        ctx.diagnostics().report(
            ir::Diagnostic(ir::Severity::Error, e.what()));
    } catch (const PanicError &e) {
        // Invariant violation inside a frontend: same conversion the
        // pass manager applies — an "internal error" diagnostic, not a
        // dead worker.
        ctx.diagnostics().report(ir::Diagnostic(
            ir::Severity::Error,
            std::string("internal error: ") + e.what()));
    } catch (const std::exception &e) {
        // Anything else a build callback throws fails this job only: an
        // exception escaping the worker thread would end the process.
        ctx.diagnostics().report(
            ir::Diagnostic(ir::Severity::Error, e.what()));
    } catch (...) {
        ctx.diagnostics().report(
            ir::Diagnostic(ir::Severity::Error, "unknown exception"));
    }

    if (module && ir::failed(ir::verify(module.get()))) {
        stage = "verify";
        module = ir::OwningOp();
    }

    if (!module) {
        reply.pipeline.succeeded = false;
        reply.pipeline.failedPass = stage;
        reply.pipeline.diagnostics = collector.take();
        for (ir::Diagnostic &d : reply.pipeline.diagnostics)
            if (d.pass.empty())
                d.pass = stage;
        reply.error = summarize(reply.pipeline);
        return reply;
    }

    ir::ModuleFingerprint fp = ir::fingerprintModule(module.get());
    reply.key = makeCacheKey(fp, request);

    if (!request.bypassCache) {
        std::shared_ptr<const CompileArtifact> hit = cache_.lookup(reply.key);
        // A hit recorded without simulation cannot serve a request that
        // wants one; recompile and overwrite it.
        if (hit && (!request.sim.run || hit->sim.simulated)) {
            reply.ok = true;
            reply.cacheHit = true;
            reply.artifact = std::move(hit);
            return reply;
        }
    }

    reply.pipeline = transforms::runPipeline(module.get(), request.options);
    if (!reply.pipeline) {
        reply.error = summarize(reply.pipeline);
        return reply;
    }

    auto artifact = std::make_shared<CompileArtifact>();
    artifact->moduleFp = fp;
    artifact->optionsHash = request.options.fingerprint();
    artifact->csl = codegen::emitCsl(module.get());

    if (request.sim.run) {
        std::string failure = simulate(module.get(), request, artifact->sim);
        if (!failure.empty()) {
            ir::Diagnostic d(ir::Severity::Error, std::move(failure));
            d.pass = "simulate";
            reply.pipeline.succeeded = false;
            reply.pipeline.failedPass = "simulate";
            reply.pipeline.diagnostics.push_back(std::move(d));
            reply.error = summarize(reply.pipeline);
            return reply;
        }
    }

    if (!request.bypassCache)
        cache_.insert(reply.key, artifact);
    reply.ok = true;
    reply.artifact = std::move(artifact);
    return reply;
}

ServiceStats
CompileService::stats() const
{
    ServiceStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.succeeded = succeeded_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.cache = cache_.stats();
    s.contextsCreated = contextsCreated_.load(std::memory_order_relaxed);
    s.contextsRecycled = contextsRecycled_.load(std::memory_order_relaxed);
    return s;
}

} // namespace wsc::service
