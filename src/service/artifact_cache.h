/**
 * @file
 * Content-addressed cache of compile artifacts for the compile service.
 *
 * Key: the 128-bit structural fingerprint of the frontend-emitted module
 * (ir/module_hash.h) folded with the pipeline-option and request-level
 * hashes — everything that can change the artifact. Value: the emitted
 * CSL bytes plus the simulation configuration/result recorded when the
 * artifact was first built. The byte-exact CSL emitter and the golden
 * cycle locks make cache correctness directly testable: a hit must be
 * byte-identical (and cycle-identical) to a cold compile, which
 * `ctest -L service` asserts.
 *
 * Concurrency: the table is sharded by key; each shard holds a
 * std::shared_mutex, so the hot path — repeat requests hitting the
 * cache — takes only a shared (reader) lock and copies a shared_ptr.
 * Artifacts are immutable after insertion; eviction under the capacity
 * bound is approximate-LRU via a relaxed per-entry access tick, so hits
 * never take the exclusive lock.
 */

#ifndef WSC_SERVICE_ARTIFACT_CACHE_H
#define WSC_SERVICE_ARTIFACT_CACHE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "codegen/csl_emitter.h"
#include "ir/module_hash.h"

namespace wsc::service {

/** Simulation request/result recorded alongside a cached artifact. */
struct SimConfig
{
    /** Whether the artifact was simulated when first compiled. */
    bool simulated = false;
    /** Fabric dimensions the simulation ran on. */
    int nx = 0;
    int ny = 0;
    /** Event budget passed to Simulator::runWithReport. */
    uint64_t cycleBudget = 0;
    /** Final simulated cycle (the golden-lock quantity). */
    uint64_t finalCycle = 0;
    /** PEs that returned control to the host. */
    uint64_t unblocks = 0;
};

/** Immutable compile result shared between cache and replies. */
struct CompileArtifact
{
    codegen::EmittedCsl csl;
    SimConfig sim;
    /** Fingerprint of the module this artifact was compiled from. */
    ir::ModuleFingerprint moduleFp;
    /** The folded options/request hash that completed the key. */
    uint64_t optionsHash = 0;
};

/** Full cache key: module fingerprint x request options. */
struct CacheKey
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool operator==(const CacheKey &) const = default;
};

/** Cache hit/miss/eviction counters (monotonic, relaxed). */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
};

/** Sharded, capacity-bounded, approximate-LRU artifact cache. */
class ArtifactCache
{
  public:
    /**
     * `capacity` bounds the total number of cached artifacts. The bound
     * is distributed over the shards, so an individual shard may evict
     * while another still has room; the global count never exceeds
     * `capacity`. Capacity values below the shard count reduce the
     * shard count (capacity 1 = one shard, strict LRU of one).
     */
    explicit ArtifactCache(size_t capacity = 1024);

    /** Lock-free-ish read path: shared lock + shared_ptr copy. */
    std::shared_ptr<const CompileArtifact> lookup(const CacheKey &key);

    /**
     * Publish an artifact (exclusive lock on one shard). Re-inserting
     * an existing key replaces the value — harmless because both were
     * built from identical content. Evicts the least-recently-used
     * entry of the shard when it is full.
     */
    void insert(const CacheKey &key,
                std::shared_ptr<const CompileArtifact> artifact);

    /** Entries currently resident (sums shard sizes; racy under load). */
    size_t size() const;

    CacheStats stats() const;

  private:
    struct Entry
    {
        std::shared_ptr<const CompileArtifact> artifact;
        /** Global tick of the last lookup/insert (approximate LRU). */
        std::atomic<uint64_t> lastUsed{0};

        Entry() = default;
        Entry(std::shared_ptr<const CompileArtifact> a, uint64_t tick)
            : artifact(std::move(a)), lastUsed(tick)
        {
        }
    };

    struct KeyHash
    {
        size_t
        operator()(const CacheKey &k) const
        {
            return static_cast<size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
        }
    };

    struct Shard
    {
        mutable std::shared_mutex mu;
        std::unordered_map<CacheKey, std::unique_ptr<Entry>, KeyHash> map;
        size_t capacity = 0;
    };

    Shard &shardFor(const CacheKey &key);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<uint64_t> tick_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> insertions_{0};
    std::atomic<uint64_t> evictions_{0};
};

} // namespace wsc::service

#endif // WSC_SERVICE_ARTIFACT_CACHE_H
