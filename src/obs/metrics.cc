#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>

namespace capu::obs
{

namespace
{

std::size_t
bucketIndex(std::uint64_t value)
{
    if (value == 0)
        return 0;
    return static_cast<std::size_t>(64 - __builtin_clzll(value));
}

} // namespace

void
Histogram::observe(std::uint64_t value)
{
    std::size_t i = std::min<std::size_t>(bucketIndex(value), kBuckets - 1);
    ++buckets_[i];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

double
Histogram::mean() const
{
    return count_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank target: the smallest rank r (1-based) with
    // cumulative(r) >= q * count.
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        if (cum + buckets_[i] < rank) {
            cum += buckets_[i];
            continue;
        }
        if (i == 0)
            return std::max<std::uint64_t>(min(), 0);
        // Bucket i spans (2^(i-1), 2^i]; spread its occupants evenly.
        double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
        double hi = std::ldexp(1.0, static_cast<int>(i));
        double frac = static_cast<double>(rank - cum) /
                      static_cast<double>(buckets_[i]);
        auto v = static_cast<std::uint64_t>(lo + frac * (hi - lo));
        return std::clamp(v, min(), max_);
    }
    return max_;
}

std::uint64_t
Histogram::bucket(std::size_t i) const
{
    return i < kBuckets ? buckets_[i] : 0;
}

Histogram
Histogram::deltaSince(const Histogram &prev) const
{
    Histogram d;
    for (std::size_t i = 0; i < kBuckets; ++i)
        d.buckets_[i] = buckets_[i] - prev.buckets_[i];
    d.count_ = count_ - prev.count_;
    d.sum_ = sum_ - prev.sum_;
    d.min_ = min_;
    d.max_ = max_;
    return d;
}

void
Histogram::merge(const Histogram &delta)
{
    for (std::size_t i = 0; i < kBuckets; ++i)
        buckets_[i] += delta.buckets_[i];
    count_ += delta.count_;
    sum_ += delta.sum_;
    min_ = std::min(min_, delta.min_);
    max_ = std::max(max_, delta.max_);
}

std::size_t
Histogram::usedBuckets() const
{
    std::size_t last = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        if (buckets_[i] != 0)
            last = i + 1;
    }
    return last;
}

std::optional<Metric>
metricByName(std::string_view name)
{
    auto it = std::ranges::lower_bound(kMetricTable, name, {},
                                       &MetricInfo::name);
    if (it == std::end(kMetricTable) || it->name != name)
        return std::nullopt;
    return static_cast<Metric>(it - std::begin(kMetricTable));
}

const Histogram *
MetricsRegistry::histogram(Metric m) const
{
    std::size_t i = index(m);
    bool live = kMetricTable[i].kind == MetricKind::Histogram && touched(m);
    return live ? &v_.histograms[histogramSlot(i)] : nullptr;
}

MetricsRegistry::Values
MetricsRegistry::deltaSince(const Values &mark) const
{
    Values d;
    for (std::size_t i = 0; i < kMetricCount; ++i)
        d.counters[i] = v_.counters[i] - mark.counters[i];
    d.gauges = v_.gauges;
    for (std::size_t i = 0; i < d.histograms.size(); ++i)
        d.histograms[i] = v_.histograms[i].deltaSince(mark.histograms[i]);
    d.touched = v_.touched;
    return d;
}

void
MetricsRegistry::replay(const Values &delta)
{
    if (!enabled_)
        return;
    // Untouched counters carry a zero delta and untouched histograms an
    // empty one; only gauges must skip the rows the delta never set.
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        v_.counters[i] += delta.counters[i];
        if (delta.touched.test(i) && kMetricTable[i].kind == MetricKind::Gauge)
            v_.gauges[i] = delta.gauges[i];
    }
    for (std::size_t h = 0; h < v_.histograms.size(); ++h)
        v_.histograms[h].merge(delta.histograms[h]);
    v_.touched |= delta.touched;
}

void
MetricsRegistry::snapshotIteration(int iteration)
{
    if (!enabled_)
        return;
    IterationSnapshot &snap = snapshots_.emplace_back();
    snap.iteration = iteration;
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        MetricKind kind = kMetricTable[i].kind;
        if (!v_.touched.test(i) || kind == MetricKind::Histogram)
            continue;
        snap.touched.set(i);
        snap.values[i] =
            kind == MetricKind::Gauge
                ? v_.gauges[i]
                : static_cast<double>(v_.counters[i] - lastSnapshot_[i]);
    }
    lastSnapshot_ = v_.counters;
}

} // namespace capu::obs
