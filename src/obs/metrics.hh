/**
 * @file
 * Metrics registry: named counters, gauges and log2-bucket histograms.
 *
 * Counters accumulate monotonically over a run (swap bytes, OOM syncs,
 * fingerprint checks); gauges hold the latest sampled value (fragmentation,
 * prefetch-hidden ratio, peak bytes); histograms record distributions
 * (recompute chain lengths, stall durations). snapshotIteration() closes an
 * iteration: it records every counter's *delta* since the previous snapshot
 * plus every gauge's current value, producing the per-iteration rows the
 * CSV/JSON exporters emit — the machine-readable trajectory BENCH files and
 * regression dashboards consume.
 *
 * Names are dotted paths ("swap.out.bytes", "bfc.fragmentation"). Maps are
 * ordered so exports are deterministic.
 */

#ifndef CAPU_OBS_METRICS_HH
#define CAPU_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace capu::obs
{

/** The trace ring's drops: observer state that replay never templates. */
inline constexpr std::string_view kTraceDroppedCounter =
    "capu.obs.trace_dropped";

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

class MetricsRegistry
{
  public:
    /** Disabled registries ignore every mutation. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    void clear();

    /** Increment counter `name` by `delta`. */
    void add(std::string_view name, std::uint64_t delta = 1);
    /** Set counter `name` to an externally-maintained absolute value. */
    void setCounter(std::string_view name, std::uint64_t value);
    /** Set gauge `name`. */
    void set(std::string_view name, double value);
    /** Record `value` into histogram `name`. */
    void observe(std::string_view name, std::uint64_t value);
    /** Fold a Histogram::deltaSince() result into `name` (capureplay). */
    void mergeHistogram(std::string_view name, const Histogram &delta);

    std::uint64_t counter(std::string_view name) const;
    double gauge(std::string_view name) const;
    const Histogram *histogram(std::string_view name) const;

    const std::map<std::string, std::uint64_t, std::less<>> &
    counters() const
    {
        return counters_;
    }
    const std::map<std::string, double, std::less<>> &gauges() const
    {
        return gauges_;
    }
    const std::map<std::string, Histogram, std::less<>> &histograms() const
    {
        return histograms_;
    }

    // --- per-iteration snapshots ---

    struct IterationSnapshot
    {
        int iteration = 0;
        /** Counter deltas since the previous snapshot + gauge values. */
        std::map<std::string, double> values;
    };

    void snapshotIteration(int iteration);
    const std::vector<IterationSnapshot> &iterations() const
    {
        return snapshots_;
    }

    /** Union of value names across all snapshots (CSV column set). */
    std::vector<std::string> snapshotColumns() const;

  private:
    std::map<std::string, std::uint64_t, std::less<>> counters_;
    std::map<std::string, double, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
    std::map<std::string, std::uint64_t, std::less<>> lastSnapshot_;
    std::vector<IterationSnapshot> snapshots_;
    bool enabled_ = false;
};

} // namespace capu::obs

#endif // CAPU_OBS_METRICS_HH
