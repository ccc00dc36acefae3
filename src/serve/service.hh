/**
 * @file
 * capuserve — the in-process planning service.
 *
 * A long-running service answering "give me a memory plan for (model,
 * batch, memory limit, policy config)" requests for many tenants sharing
 * one simulated GPU pool:
 *
 *  - cold (miss): build the graph, run a short Capuchin session (measured
 *    iteration + guided refinement), extract the learned plan, insert it
 *    into the PlanCache and retain the session as the key's template;
 *  - warm (hit): return the cached plan and fork the template session
 *    (capufork) so the tenant starts guided execution immediately — the
 *    measured iteration is never re-run, and the returned plan is
 *    bit-identical (by digest) to the cold run's.
 *
 * With a plan directory configured, cold results are also serialized to
 * disk (core/plan_io format) and a miss first tries to reload a stored
 * plan — version and graph-fingerprint validated — before measuring.
 *
 * Thread-safety: handle() may be called from many pool workers at once.
 * Cache and session-manager access is serialized by one mutex; cold
 * planning runs outside the lock (concurrent misses on the same key both
 * measure — deterministic simulation makes their plans identical, and the
 * second insert simply bumps the entry version, oneDNN-cache style).
 *
 * Observability: capu.serve.hit / miss / evict / inflight counters plus
 * cache occupancy and hit-rate gauges, published into the registry passed
 * at construction (capuscope conventions).
 */

#ifndef CAPU_SERVE_SERVICE_HH
#define CAPU_SERVE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "exec/executor.hh"
#include "obs/metrics.hh"
#include "serve/plan_cache.hh"
#include "serve/session_manager.hh"

namespace capu::serve
{

struct PlanRequest
{
    std::string model = "resnet50";
    std::int64_t batch = 256;
    /** capuchin | capuchin-swap | capuchin-recompute. */
    std::string policy = "capuchin";
    /** Guided iterations to run on the warm fork (0 = plan only). */
    int warmIterations = 1;
};

struct PlanResponse
{
    bool ok = false;
    std::string error;
    bool hit = false;
    /** Plan loaded from the on-disk store instead of measured (cold). */
    bool fromDisk = false;
    std::uint64_t digest = 0;
    std::uint64_t graphFingerprint = 0;
    std::uint64_t version = 0;
    std::size_t planItems = 0;
    std::uint64_t plannedBytes = 0;
    /** Host wall time spent answering, milliseconds. */
    double latencyMs = 0.0;
    /** Simulated throughput of the warm-fork iterations (0 if none ran). */
    double imagesPerSec = 0.0;
};

struct PlanServiceConfig
{
    /** Device/allocator/replay configuration for planning sessions. */
    ExecConfig exec;
    std::size_t cacheEntries = 64;
    std::uint64_t cacheBytes = 64ull << 20;
    /**
     * Iterations of a cold planning session: one measured + enough guided
     * iterations for the refinement loop to settle on a plan.
     */
    int coldIterations = 4;
    /** Serialized-plan directory ("" = no persistence). */
    std::string planDir;
};

class PlanService
{
  public:
    /** `metrics` may be nullptr (counters are then dropped). */
    explicit PlanService(PlanServiceConfig cfg,
                         obs::MetricsRegistry *metrics = nullptr);

    /** Answer one request (thread-safe; see file comment). */
    PlanResponse handle(const PlanRequest &request);

    /** Key derivation (exposed for tests and tools). */
    ServeKey keyFor(const PlanRequest &request) const;

    const PlanCacheStats &cacheStats() const { return cache_.stats(); }
    std::size_t cacheEntries() const { return cache_.entries(); }
    std::uint64_t cacheBytes() const { return cache_.bytes(); }
    std::size_t templateSessions() const { return sessions_.size(); }

    /** Requests currently being answered (admission gauge). */
    int inflight() const { return inflight_; }

    /**
     * Publish cache occupancy / hit-rate gauges into the registry now
     * (counters are maintained incrementally; gauges snapshot on demand
     * and at the end of every handle()).
     */
    void publishGauges();

  private:
    PlanResponse handleLocked(const PlanRequest &request);
    static void fillFromEntry(PlanResponse &resp,
                              const PlanCache::Entry &entry);
    bool tryLoadFromDisk(const ServeKey &key, const PlanRequest &req,
                         PlanResponse &resp);
    std::string planPath(const ServeKey &key) const;
    void count(obs::Metric metric);

    PlanServiceConfig cfg_;
    obs::MetricsRegistry *metrics_;
    std::mutex mutex_; ///< guards cache_ + sessions_
    PlanCache cache_;
    SessionManager sessions_;
    std::atomic<int> inflight_{0};
};

/**
 * Stable hash of a policy configuration for key derivation. Covers the
 * policy name; extend with option fields if the service ever exposes
 * tunables that change planning decisions.
 */
std::uint64_t policyConfigHash(const std::string &policy);

/** Model-identity hash (canonical model name). */
std::uint64_t modelHash(const std::string &model);

} // namespace capu::serve

#endif // CAPU_SERVE_SERVICE_HH
