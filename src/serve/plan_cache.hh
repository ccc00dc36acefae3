/**
 * @file
 * capuserve — versioned, capacity-controlled plan cache.
 *
 * Maps a planning request identity (model, batch, memory limit, policy
 * configuration) to the memory plan a cold measured run produced, in the
 * style of a constant-tensor cache: strict LRU ordering, eviction by both
 * entry count and total cached bytes, and a monotonically increasing
 * version stamped on every insertion so holders of a stale entry snapshot
 * can detect that the cache has moved on (a re-planned key gets a new
 * version, never a mutated entry).
 *
 * The cache itself is not thread-safe; PlanService serializes access. An
 * eviction hook lets the owner drop the per-entry template session (the
 * fork source for warm requests) in lockstep with the plan entry.
 */

#ifndef CAPU_SERVE_PLAN_CACHE_HH
#define CAPU_SERVE_PLAN_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "core/policy_maker.hh"
#include "support/rng.hh"

namespace capu::serve
{

/**
 * Identity of a planning problem. `model` is the model-identity hash
 * (hashString of the canonical model name); the *graph* fingerprint of
 * the materialized problem rides on the entry for on-disk validation —
 * looking a key up must not require building the graph, or the warm path
 * would pay the cold path's dominant cost.
 */
struct ServeKey
{
    std::uint64_t model = 0;
    std::int64_t batch = 0;
    std::uint64_t memLimit = 0;
    std::uint64_t policyCfg = 0;

    bool
    operator==(const ServeKey &o) const
    {
        return model == o.model && batch == o.batch &&
               memLimit == o.memLimit && policyCfg == o.policyCfg;
    }
};

struct ServeKeyHash
{
    std::size_t
    operator()(const ServeKey &k) const
    {
        std::uint64_t h = hashCombine(k.model,
                                      static_cast<std::uint64_t>(k.batch));
        h = hashCombine(h, k.memLimit);
        return static_cast<std::size_t>(hashCombine(h, k.policyCfg));
    }
};

struct PlanCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total > 0 ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
    }
};

class PlanCache
{
  public:
    struct Entry
    {
        ServeKey key;
        Plan plan;
        /** planDigest(plan), precomputed at insertion. */
        std::uint64_t digest = 0;
        /** graphFingerprint of the graph the plan was measured on. */
        std::uint64_t graphFingerprint = 0;
        /** Global insertion stamp; a re-inserted key gets a fresh one. */
        std::uint64_t version = 0;
        /** Approximate resident footprint, for the byte-capacity bound. */
        std::uint64_t bytes = 0;
    };

    using EvictionHook = std::function<void(const Entry &)>;

    /**
     * @param max_entries Entry-count capacity (0 = unbounded).
     * @param max_bytes Total approximate-footprint capacity (0 = unbounded).
     */
    PlanCache(std::size_t max_entries, std::uint64_t max_bytes)
        : maxEntries_(max_entries), maxBytes_(max_bytes)
    {
    }

    /** Called just before an LRU victim is removed. */
    void setEvictionHook(EvictionHook hook) { hook_ = std::move(hook); }

    /**
     * Look `key` up; a hit moves the entry to the front of the LRU order
     * and returns it (valid until the next insert()). Counts hit/miss.
     */
    const Entry *find(const ServeKey &key);

    /**
     * Insert (or replace) the plan for `key`, evicting LRU victims until
     * both capacity bounds hold again. Returns the resident entry.
     */
    const Entry *insert(const ServeKey &key, Plan plan,
                        std::uint64_t graph_fingerprint);

    const PlanCacheStats &stats() const { return stats_; }
    std::size_t entries() const { return lru_.size(); }
    std::uint64_t bytes() const { return bytes_; }

  private:
    void evictOne();
    void enforceCapacity();

    std::size_t maxEntries_;
    std::uint64_t maxBytes_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<ServeKey, std::list<Entry>::iterator, ServeKeyHash>
        map_;
    std::uint64_t bytes_ = 0;
    std::uint64_t nextVersion_ = 0;
    PlanCacheStats stats_;
    EvictionHook hook_;
};

} // namespace capu::serve

#endif // CAPU_SERVE_PLAN_CACHE_HH
