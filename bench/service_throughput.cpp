/**
 * Compile-service throughput bench (JSON artifact; the committed
 * baseline is BENCH_pr8.json at the repository root).
 *
 * Drives wsc::service::CompileService with the five paper workloads at
 * several worker counts and reports requests/sec plus p50/p99 service
 * latency (queue + work) per scenario:
 *
 *   - cold: every request bypasses the artifact cache — the sustained
 *     full-pipeline compile rate, i.e. the context-recycling path.
 *   - warm: cache enabled, one warmup round — steady state is all
 *     cache hits, the request-deduplication path.
 *
 * Usage: service_throughput [out.json] [requests-per-scenario]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "service/compile_service.h"
#include "service/workload_requests.h"

using namespace wsc;

namespace {

struct Scenario
{
    std::string name;
    int threads;
    bool bypassCache;
    int requests;
    double wallSeconds = 0.0;
    double requestsPerSec = 0.0;
    double p50Micros = 0.0;
    double p99Micros = 0.0;
    double meanWorkMicros = 0.0;
    uint64_t cacheHits = 0;
    uint64_t contextsCreated = 0;
    uint64_t contextsRecycled = 0;
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

void
runScenario(Scenario &s)
{
    std::vector<service::CompileRequest> workloads =
        service::allWorkloadRequests(8, 8, 2);

    service::ServiceConfig config;
    config.threads = s.threads;
    service::CompileService svc(config);

    if (!s.bypassCache) {
        // Warmup: populate the cache so the timed run measures hits.
        for (const service::CompileRequest &request : workloads)
            svc.compile(request);
    }

    std::vector<std::future<service::CompileReply>> replies;
    replies.reserve(s.requests);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < s.requests; ++i) {
        service::CompileRequest request = workloads[i % workloads.size()];
        request.bypassCache = s.bypassCache;
        replies.push_back(svc.submit(std::move(request)));
    }

    std::vector<double> latencies;
    latencies.reserve(replies.size());
    double workSum = 0.0;
    for (std::future<service::CompileReply> &f : replies) {
        service::CompileReply reply = f.get();
        if (!reply.ok) {
            std::fprintf(stderr, "FAILED request %s: %s\n",
                         reply.name.c_str(), reply.error.c_str());
            std::exit(1);
        }
        latencies.push_back(reply.queueMicros + reply.workMicros);
        workSum += reply.workMicros;
    }
    s.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();

    std::sort(latencies.begin(), latencies.end());
    s.requestsPerSec = s.requests / s.wallSeconds;
    s.p50Micros = percentile(latencies, 0.50);
    s.p99Micros = percentile(latencies, 0.99);
    s.meanWorkMicros = workSum / s.requests;

    service::ServiceStats stats = svc.stats();
    s.cacheHits = stats.cache.hits;
    s.contextsCreated = stats.contextsCreated;
    s.contextsRecycled = stats.contextsRecycled;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *outPath = argc > 1 ? argv[1] : "BENCH_service.json";
    int requests = argc > 2 ? std::atoi(argv[2]) : 200;

    std::vector<Scenario> scenarios = {
        {"cold_t1", 1, true, requests},
        {"cold_t2", 2, true, requests},
        {"cold_t4", 4, true, requests},
        {"warm_t1", 1, false, requests},
        {"warm_t4", 4, false, requests},
    };
    for (Scenario &s : scenarios) {
        runScenario(s);
        std::printf("%-8s threads=%d  %8.1f req/s  p50 %8.1f us  "
                    "p99 %8.1f us  hits %llu\n",
                    s.name.c_str(), s.threads, s.requestsPerSec,
                    s.p50Micros, s.p99Micros,
                    static_cast<unsigned long long>(s.cacheHits));
    }

    std::FILE *out = std::fopen(outPath, "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", outPath);
        return 1;
    }
    char stamp[64] = "unknown";
    std::time_t now = std::time(nullptr);
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%S%z",
                  std::localtime(&now));
    std::fprintf(out,
                 "{\n"
                 "  \"context\": {\n"
                 "    \"date\": \"%s\",\n"
                 "    \"executable\": \"%s\",\n"
                 "    \"requests_per_scenario\": %d,\n"
                 "    \"workloads\": [\"jacobian\", \"diffusion\", "
                 "\"acoustic\", \"seismic\", \"uvkbe\"],\n"
                 "    \"grid\": \"8x8, reduced z, 2 timesteps\"\n"
                 "  },\n"
                 "  \"benchmarks\": [\n",
                 stamp, argv[0], requests);
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &s = scenarios[i];
        std::fprintf(
            out,
            "    {\n"
            "      \"name\": \"service_throughput/%s\",\n"
            "      \"threads\": %d,\n"
            "      \"bypass_cache\": %s,\n"
            "      \"requests\": %d,\n"
            "      \"wall_seconds\": %.6f,\n"
            "      \"requests_per_second\": %.2f,\n"
            "      \"latency_p50_us\": %.2f,\n"
            "      \"latency_p99_us\": %.2f,\n"
            "      \"mean_work_us\": %.2f,\n"
            "      \"cache_hits\": %llu,\n"
            "      \"contexts_created\": %llu,\n"
            "      \"contexts_recycled\": %llu\n"
            "    }%s\n",
            s.name.c_str(), s.threads, s.bypassCache ? "true" : "false",
            s.requests, s.wallSeconds, s.requestsPerSec, s.p50Micros,
            s.p99Micros, s.meanWorkMicros,
            static_cast<unsigned long long>(s.cacheHits),
            static_cast<unsigned long long>(s.contextsCreated),
            static_cast<unsigned long long>(s.contextsRecycled),
            i + 1 < scenarios.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", outPath);
    return 0;
}
