/**
 * @file
 * wsc::service::CompileService — the concurrent compile-and-simulate
 * front door of the toolchain (ROADMAP: compiler-as-a-service).
 *
 * Architecture (docs/architecture.md §7):
 *
 *  - A fixed pool of worker threads drains a FIFO job queue. Each
 *    worker owns one ir::Context, built (dialects registered) on its
 *    first job and recycled with Context::reset() after every job:
 *    the reset drops the job's IR wholesale (arena rewind, intern pools
 *    cleared) while keeping the arena's pages and the op registry, so
 *    steady-state jobs pay no page faults and no dialect
 *    re-registration.
 *
 *  - Finished artifacts (emitted CSL bytes + simulation config) go
 *    into a content-addressed ArtifactCache keyed by the structural
 *    module fingerprint (ir/module_hash.h) folded with the pipeline-
 *    option, architecture and simulation-request hashes. A repeat
 *    request never reruns the pipeline: it takes a shared-lock lookup
 *    and copies a shared_ptr.
 *
 *  - Failure is a reply, not a crash (the PR 7 contract, proven here
 *    under concurrency): a malformed request fails its own job with
 *    the rendered diagnostics carried in CompileReply::pipeline, while
 *    the worker thread and its recycled context stay fully reusable —
 *    the next job on the same context must produce byte-identical
 *    output to a cold compile, which `ctest -L service` asserts. A
 *    simulation that cannot be built or does not complete is a failed
 *    reply too, and is never cached.
 */

#ifndef WSC_SERVICE_COMPILE_SERVICE_H
#define WSC_SERVICE_COMPILE_SERVICE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ir/pass.h"
#include "service/artifact_cache.h"
#include "transforms/pipeline.h"
#include "wse/arch_params.h"

namespace wsc::service {

/**
 * Optional simulation of the compiled program. When `run` is set, a
 * cache miss simulates after emission and records the final cycle in
 * the artifact's SimConfig; a hit returns the recorded value. Field
 * initial conditions are *not* part of the cache key: the simulator's
 * timing model has no data-dependent control flow, so the cycle count
 * depends only on the program and fabric — the same property the
 * golden cycle locks rely on.
 */
struct SimRequest
{
    bool run = false;
    /** Fabric dimensions to instantiate. */
    int nx = 0;
    int ny = 0;
    /** Event budget for Simulator::runWithReport. */
    uint64_t cycleBudget = 4000000000ULL;
    /** Field names to initialize, in index order. */
    std::vector<std::string> fields;
    /** Initial condition: value of fields[field] at (x, y, z). */
    std::function<float(int field, int x, int y, int z)> init;
};

/** One compile job. */
struct CompileRequest
{
    /** Label carried through to the reply and stats. */
    std::string name;
    /**
     * Frontend: build the module in the job's context. Report failure
     * by emitting a diagnostic through the context's engine and
     * returning an empty OwningOp (or throwing ir::DiagnosedError).
     */
    std::function<ir::OwningOp(ir::Context &)> build;
    transforms::PipelineOptions options;
    wse::ArchParams arch = wse::ArchParams::wse3();
    SimRequest sim;
    /** Skip lookup *and* insertion — cold-compile measurement hook. */
    bool bypassCache = false;
};

/** Outcome of one job. */
struct CompileReply
{
    /** Compile (and simulation, when requested) succeeded. */
    bool ok = false;
    /** Served from the artifact cache without running the pipeline. */
    bool cacheHit = false;
    std::string name;
    CacheKey key;
    /** The artifact; null when !ok. */
    std::shared_ptr<const CompileArtifact> artifact;
    /**
     * The pipeline outcome, diagnostics included (PR 7's
     * PipelineResult, plumbed through the service verbatim). On
     * frontend/verifier/simulation failures `failedPass` is
     * "frontend"/"verify"/"simulate".
     * Untouched (succeeded, empty) for cache hits.
     */
    ir::PipelineResult pipeline;
    /** One-line failure summary; empty when ok. */
    std::string error;
    /** Time spent queued before a worker picked the job up. */
    double queueMicros = 0.0;
    /** Time on the worker (frontend + pipeline + emission + sim). */
    double workMicros = 0.0;

    explicit operator bool() const { return ok; }
};

/** Service-wide configuration. */
struct ServiceConfig
{
    /** Worker threads (= max jobs in flight). */
    int threads = 1;
    /** Artifact-cache capacity bound (entries). */
    size_t cacheCapacity = 1024;
};

/** Monotonic service counters (one snapshot; relaxed reads). */
struct ServiceStats
{
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t succeeded = 0;
    uint64_t failed = 0;
    CacheStats cache;
    /** Jobs that built their worker's context (at most one per worker). */
    uint64_t contextsCreated = 0;
    /** Jobs that ran on a context recycled from an earlier job. */
    uint64_t contextsRecycled = 0;
};

/** Thread-pool compile service; see the file comment. */
class CompileService
{
  public:
    explicit CompileService(ServiceConfig config = {});
    /** Drains nothing: pending jobs are completed before join. */
    ~CompileService();
    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /** Enqueue a job; the future resolves when a worker finishes it. */
    std::future<CompileReply> submit(CompileRequest request);

    /** Convenience: submit and wait. */
    CompileReply
    compile(CompileRequest request)
    {
        return submit(std::move(request)).get();
    }

    ServiceStats stats() const;

    /** The artifact cache (test introspection). */
    ArtifactCache &cache() { return cache_; }

    int threads() const { return static_cast<int>(workers_.size()); }

  private:
    struct Job
    {
        CompileRequest request;
        std::promise<CompileReply> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    void workerLoop();
    CompileReply runJob(ir::Context &ctx, CompileRequest request);

    ArtifactCache cache_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Job> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;

    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> succeeded_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> contextsCreated_{0};
    std::atomic<uint64_t> contextsRecycled_{0};
};

/**
 * Fold a module fingerprint with the request-level hashes (pipeline
 * options, architecture, simulation request) into the cache key.
 * Exposed for tests that predict keys.
 */
CacheKey makeCacheKey(const ir::ModuleFingerprint &fp,
                      const CompileRequest &request);

} // namespace wsc::service

#endif // WSC_SERVICE_COMPILE_SERVICE_H
