/**
 * @file
 * Metrics registry: typed counters, gauges and log2-bucket histograms.
 *
 * Counters accumulate monotonically over a run (swap bytes, OOM syncs,
 * fingerprint checks); gauges hold the latest sampled value (fragmentation,
 * prefetch-hidden ratio, peak bytes); histograms record distributions
 * (recompute chain lengths). snapshotIteration() closes an iteration: it
 * records every counter's *delta* since the previous snapshot plus every
 * gauge's current value, producing the per-iteration rows the CSV/JSON
 * exporters emit.
 *
 * The metric table below is the only place that knows a metric's exported
 * name; call sites pass a Metric id, and the registry is arrays indexed by
 * it. A metric enters the exports only once it has been touched.
 */

#ifndef CAPU_OBS_METRICS_HH
#define CAPU_OBS_METRICS_HH

#include <array>
#include <bitset>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace capu::obs
{

/** Power-of-two bucket histogram for nonnegative integer observations. */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    void observe(std::uint64_t value);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    /**
     * Value at quantile q in [0, 1], linearly interpolated inside the
     * log2 bucket that crosses the target rank and clamped to the
     * observed [min, max]. Exact only up to bucket resolution (a factor
     * of 2); good enough for p50/p95/p99 reporting. 0 when empty.
     */
    std::uint64_t percentile(double q) const;
    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p95() const { return percentile(0.95); }
    std::uint64_t p99() const { return percentile(0.99); }

    /** Count in bucket i (values in [2^(i-1)+1 .. 2^i]; bucket 0 holds 0). */
    std::uint64_t bucket(std::size_t i) const;
    std::size_t usedBuckets() const;

    /**
     * This histogram minus `prev` (an earlier copy of the same histogram):
     * bucket counts, count and sum subtract; min/max carry the current
     * absolutes so merge() can restore them. Used by capureplay to record
     * one steady iteration's worth of observations.
     */
    Histogram deltaSince(const Histogram &prev) const;

    /** Fold a deltaSince() result back in (replayed-iteration re-apply). */
    void merge(const Histogram &delta);

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ull;
    std::uint64_t max_ = 0;
};

enum class MetricKind : std::uint8_t
{
    Counter,
    Gauge,
    Histogram,
};

/**
 * The metric table: one row per metric, (id, kind, exported name), sorted
 * by exported name so exporters print in table order. DESIGN.md §8 lists
 * the counters that count one fact twice.
 */
#define CAPU_METRICS(X)                                                       \
    X(BfcFailedAllocs, Counter, "bfc.failed_allocs")                          \
    X(BfcFragmentation, Gauge, "bfc.fragmentation")                           \
    X(BfcMerges, Counter, "bfc.merges")                                       \
    X(BfcSplits, Counter, "bfc.splits")                                       \
    X(DriftClass, Gauge, "capu.drift.class")                                  \
    X(DriftMeasuredIters, Counter, "capu.drift.measured_iters")               \
    X(DriftNovelClass, Counter, "capu.drift.novel_class")                     \
    X(DriftRemeasures, Counter, "capu.drift.remeasures")                      \
    X(TraceDropped, Counter, "capu.obs.trace_dropped")                        \
    X(ServeCacheBytes, Gauge, "capu.serve.cache.bytes")                       \
    X(ServeCacheEntries, Gauge, "capu.serve.cache.entries")                   \
    X(ServeDiskLoad, Counter, "capu.serve.disk_load")                         \
    X(ServeError, Counter, "capu.serve.error")                                \
    X(ServeEvict, Counter, "capu.serve.evict")                                \
    X(ServeHit, Counter, "capu.serve.hit")                                    \
    X(ServeHitRate, Gauge, "capu.serve.hit_rate")                             \
    X(ServeInflight, Gauge, "capu.serve.inflight")                            \
    X(ServeMiss, Counter, "capu.serve.miss")                                  \
    X(CkptDrops, Counter, "ckpt.drops")                                       \
    X(ComputeKernelNs, Counter, "compute.kernel_ns")                          \
    X(ComputeRecomputeNs, Counter, "compute.recompute_ns")                    \
    X(DropBytes, Counter, "drop.bytes")                                       \
    X(DropTensors, Counter, "drop.tensors")                                   \
    X(FaultHostRejectCount, Counter, "fault.host.reject_count")               \
    X(FaultHostRejects, Counter, "fault.host.rejects")                        \
    X(FaultKernelJittered, Counter, "fault.kernel.jittered")                  \
    X(FaultPcieDegradedTransfers, Counter, "fault.pcie.degraded_transfers")   \
    X(FaultSwapFailures, Counter, "fault.swap.failures")                      \
    X(FeedbackAdjustments, Counter, "feedback.adjustments")                   \
    X(FingerprintChecks, Counter, "fingerprint.checks")                       \
    X(GpuPeakBytes, Gauge, "gpu.peak_bytes")                                  \
    X(HostFailedAllocs, Counter, "host.failed_allocs")                        \
    X(InplaceForwards, Counter, "inplace.forwards")                           \
    X(IterAborts, Counter, "iter.aborts")                                     \
    X(IterDurationNs, Gauge, "iter.duration_ns")                              \
    X(KernelFallbacks, Counter, "kernel.fallbacks")                           \
    X(OomEvictions, Counter, "oom.evictions")                                 \
    X(OomPolicyAssists, Counter, "oom.policy_assists")                        \
    X(OomRaises, Counter, "oom.raises")                                       \
    X(PassiveEvictedBytes, Counter, "passive.evicted_bytes")                  \
    X(PlanBuilds, Counter, "plan.builds")                                     \
    X(PlanItems, Counter, "plan.items")                                       \
    X(PlanRemeasures, Counter, "plan.remeasures")                             \
    X(PlanRevisions, Counter, "plan.revisions")                               \
    X(PrefetchBusyNs, Counter, "prefetch.busy_ns")                            \
    X(PrefetchCount, Counter, "prefetch.count")                               \
    X(PrefetchHiddenRatio, Gauge, "prefetch.hidden_ratio")                    \
    X(PrefetchMiss, Counter, "prefetch.miss")                                 \
    X(PrefetchStallNs, Counter, "prefetch.stall_ns")                          \
    X(RecomputeChainOps, Histogram, "recompute.chain_ops")                    \
    X(RecomputeOps, Counter, "recompute.ops")                                 \
    X(RecomputeTensors, Counter, "recompute.tensors")                         \
    X(RecoveryDropFallbackCount, Counter, "recovery.drop_fallback_count")     \
    X(RecoveryDropFallbacks, Counter, "recovery.drop_fallbacks")              \
    X(RecoveryFeedbackShiftCount, Counter, "recovery.feedback_shift_count")   \
    X(RecoveryPrefetchMissCount, Counter, "recovery.prefetch_miss_count")     \
    X(RecoveryRemeasureCount, Counter, "recovery.remeasure_count")            \
    X(RecoverySwapForced, Counter, "recovery.swap_forced")                    \
    X(RecoverySwapRetries, Counter, "recovery.swap_retries")                  \
    X(RecoverySwapSkipCount, Counter, "recovery.swap_skip_count")             \
    X(RecoverySwapSkipped, Counter, "recovery.swap_skipped")                  \
    X(ReplayIterations, Counter, "replay.iterations")                         \
    X(RunSeed, Counter, "run.seed")                                           \
    X(StallAllocNs, Counter, "stall.alloc_ns")                                \
    X(StallInputNs, Counter, "stall.input_ns")                                \
    X(SwapBlockingCount, Counter, "swap.blocking_count")                      \
    X(SwapInBytes, Counter, "swap.in.bytes")                                  \
    X(SwapInCount, Counter, "swap.in.count")                                  \
    X(SwapOndemandCount, Counter, "swap.ondemand_count")                      \
    X(SwapOutBytes, Counter, "swap.out.bytes")                                \
    X(SwapOutCount, Counter, "swap.out.count")                                \
    X(SwapWritebackElided, Counter, "swap.writeback_elided")                  \
    X(TensorInBytes, Counter, "tensor.in_bytes")                              \
    X(TensorOutBytes, Counter, "tensor.out_bytes")                            \
    X(TensorRetiredHostBytes, Counter, "tensor.retired_host_bytes")           \
    X(TriggerEvictDrop, Counter, "trigger.evict.drop")                        \
    X(TriggerEvictSwap, Counter, "trigger.evict.swap")                        \
    X(TriggerPrefetch, Counter, "trigger.prefetch")                           \
    X(VdnnOffloads, Counter, "vdnn.offloads")                                 \
    X(VdnnPrefetches, Counter, "vdnn.prefetches")

enum class Metric : std::uint8_t
{
#define CAPU_METRIC_ID(id, kind, name) id,
    CAPU_METRICS(CAPU_METRIC_ID)
#undef CAPU_METRIC_ID
};

struct MetricInfo
{
    std::string_view name;
    MetricKind kind;
};

inline constexpr MetricInfo kMetricTable[] = {
#define CAPU_METRIC_ROW(id, kind, name) {name, MetricKind::kind},
    CAPU_METRICS(CAPU_METRIC_ROW)
#undef CAPU_METRIC_ROW
};

inline constexpr std::size_t kMetricCount = std::size(kMetricTable);

/** Whether the table's names strictly ascend (so are also unique). */
constexpr bool
metricTableSorted()
{
    for (std::size_t i = 1; i < kMetricCount; ++i)
        if (!(kMetricTable[i - 1].name < kMetricTable[i].name))
            return false;
    return true;
}
// Exporters print in table order, and metricByName binary-searches it.
static_assert(metricTableSorted(),
              "CAPU_METRICS rows must be in strictly ascending name order");

/** One bit per metric id. */
using MetricSet = std::bitset<kMetricCount>;

/** The metric exported as `name`, if any (binary search of the table). */
std::optional<Metric> metricByName(std::string_view name);

/** Histograms are stored densely: the number of histogram rows before i. */
constexpr std::size_t
histogramSlot(std::size_t i)
{
    std::size_t slot = 0;
    for (std::size_t j = 0; j < i; ++j)
        slot += kMetricTable[j].kind == MetricKind::Histogram;
    return slot;
}

class MetricsRegistry
{
  public:
    /**
     * Everything recorded so far, indexed by metric id (histograms by
     * histogramSlot). capureplay's marks are copies of it and its
     * templates deltaSince() results.
     */
    struct Values
    {
        std::array<std::uint64_t, kMetricCount> counters{};
        std::array<double, kMetricCount> gauges{};
        std::array<Histogram, histogramSlot(kMetricCount)> histograms{};
        MetricSet touched;
    };

    /** Disabled registries ignore every mutation. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Increment counter `m` by `delta`. */
    void add(Metric m, std::uint64_t delta = 1)
    {
        if (enabled_)
            touch(m).counters[index(m)] += delta;
    }
    /** Set counter `m` to an externally-maintained absolute value. */
    void setCounter(Metric m, std::uint64_t value)
    {
        if (enabled_)
            touch(m).counters[index(m)] = value;
    }
    /** Set gauge `m`. */
    void set(Metric m, double value)
    {
        if (enabled_)
            touch(m).gauges[index(m)] = value;
    }
    /** Record `value` into histogram `m`. */
    void observe(Metric m, std::uint64_t value)
    {
        if (enabled_)
            touch(m).histograms[histogramSlot(index(m))].observe(value);
    }

    std::uint64_t counter(Metric m) const { return v_.counters[index(m)]; }
    double gauge(Metric m) const { return v_.gauges[index(m)]; }
    /** nullptr until the histogram is first touched (or not one). */
    const Histogram *histogram(Metric m) const;
    bool touched(Metric m) const { return v_.touched.test(index(m)); }

    /** Lookup by exported name; 0 for an unknown or untouched metric. */
    std::uint64_t counter(std::string_view name) const
    {
        auto m = metricByName(name);
        return m ? counter(*m) : 0;
    }
    double gauge(std::string_view name) const
    {
        auto m = metricByName(name);
        return m ? gauge(*m) : 0.0;
    }

    // --- capureplay ---

    const Values &values() const { return v_; }
    /**
     * What changed since `mark` (an earlier values() copy): counter and
     * histogram differences, current gauges, and the current touched set.
     */
    Values deltaSince(const Values &mark) const;
    /** Re-apply a deltaSince() result (a synthesized iteration). */
    void replay(const Values &delta);

    // --- per-iteration snapshots ---

    struct IterationSnapshot
    {
        int iteration = 0;
        /** The counters and gauges touched so far. */
        MetricSet touched;
        /** Counter deltas since the previous snapshot + gauge values. */
        std::array<double, kMetricCount> values{};
    };

    void snapshotIteration(int iteration);
    const std::vector<IterationSnapshot> &iterations() const
    {
        return snapshots_;
    }

  private:
    static constexpr std::size_t index(Metric m)
    {
        return static_cast<std::size_t>(m);
    }
    Values &touch(Metric m)
    {
        v_.touched.set(index(m));
        return v_;
    }

    Values v_;
    std::array<std::uint64_t, kMetricCount> lastSnapshot_{};
    std::vector<IterationSnapshot> snapshots_;
    bool enabled_ = false;
};

} // namespace capu::obs

#endif // CAPU_OBS_METRICS_HH
