/**
 * @file
 * Shared test helper: metrics-registry equality between a replayed and a
 * fully executed session.
 */

#ifndef CAPU_TESTS_METRICS_EQUAL_HH
#define CAPU_TESTS_METRICS_EQUAL_HH

#include <gtest/gtest.h>

#include <string_view>

#include "obs/metrics.hh"

namespace capu
{

/**
 * Registry equality, ignoring the replay.* bookkeeping counters: the
 * end-of-run values and every per-iteration row. The replay digest does
 * not cover metrics, so this is the guard that synthesized metrics are
 * right.
 */
inline void
expectMetricsEqual(const obs::MetricsRegistry &a,
                   const obs::MetricsRegistry &b)
{
    auto synthetic = [](std::size_t i) {
        return obs::kMetricTable[i].name.starts_with("replay.");
    };
    for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
        if (synthetic(i))
            continue;
        auto id = static_cast<obs::Metric>(i);
        std::string_view name = obs::kMetricTable[i].name;
        EXPECT_EQ(a.touched(id), b.touched(id)) << name;
        EXPECT_EQ(a.counter(id), b.counter(id)) << name;
        EXPECT_EQ(a.gauge(id), b.gauge(id)) << name;
        const obs::Histogram *x = a.histogram(id);
        const obs::Histogram *y = b.histogram(id);
        if (x == nullptr || y == nullptr)
            continue;
        EXPECT_EQ(x->count(), y->count()) << name;
        EXPECT_EQ(x->sum(), y->sum()) << name;
        EXPECT_EQ(x->min(), y->min()) << name;
        EXPECT_EQ(x->max(), y->max()) << name;
        for (std::size_t k = 0; k < obs::Histogram::kBuckets; ++k)
            EXPECT_EQ(x->bucket(k), y->bucket(k)) << name << " bucket " << k;
    }
    ASSERT_EQ(a.iterations().size(), b.iterations().size());
    for (std::size_t r = 0; r < a.iterations().size(); ++r) {
        const auto &x = a.iterations()[r];
        const auto &y = b.iterations()[r];
        EXPECT_EQ(x.iteration, y.iteration) << "row " << r;
        for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
            if (synthetic(i))
                continue;
            std::string_view name = obs::kMetricTable[i].name;
            EXPECT_EQ(x.touched.test(i), y.touched.test(i))
                << "row " << r << ' ' << name;
            EXPECT_EQ(x.values[i], y.values[i]) << "row " << r << ' ' << name;
        }
    }
}

} // namespace capu

#endif // CAPU_TESTS_METRICS_EQUAL_HH
