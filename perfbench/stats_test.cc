/**
 * @file
 * Tests of the benchmark's own statistics: medians and quartiles, the
 * tail-percentile rule, geometric means, failure counting and span self
 * time. Run with `python3 perfbench/run.py --test`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "spans.hh"
#include "stats.hh"

namespace perfbench
{
namespace
{

TEST(Median, OddAndEvenSizes)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// Reference values from Python: statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles)
{
    Quartiles q = quartiles({1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(q.q1, 1.25);
    EXPECT_DOUBLE_EQ(q.q2, 2.5);
    EXPECT_DOUBLE_EQ(q.q3, 3.75);

    std::vector<double> ten(10);
    std::iota(ten.begin(), ten.end(), 1.0);
    q = quartiles(ten);
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);

    q = quartiles({5, 1, 9, 3, 7}); // unsorted input
    EXPECT_DOUBLE_EQ(q.q1, 2.0);
    EXPECT_DOUBLE_EQ(q.q2, 5.0);
    EXPECT_DOUBLE_EQ(q.q3, 8.0);

    q = quartiles({2.5, 1.0}); // two samples extrapolate
    EXPECT_DOUBLE_EQ(q.q1, 0.625);
    EXPECT_DOUBLE_EQ(q.q2, 1.75);
    EXPECT_DOUBLE_EQ(q.q3, 2.875);
}

TEST(Quartiles, SpreadIsInterquartileOverMedian)
{
    EXPECT_DOUBLE_EQ(relativeSpread({1, 2, 3, 4}), (3.75 - 1.25) / 2.5);
    EXPECT_DOUBLE_EQ(relativeSpread({4, 4, 4}), 0.0);
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(TailPercentile, PicksHighestRungWithTenSamplesBeyond)
{
    // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
    Tail t = tailPercentile(oneTo(1000));
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
    EXPECT_DOUBLE_EQ(t.value, 990.0);
    EXPECT_EQ(t.n, 1000u);
    EXPECT_EQ(t.beyond, 10u);

    // 100 samples: p99 and p95 leave 1 and 5 beyond; p90 leaves 10.
    t = tailPercentile(oneTo(100));
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_DOUBLE_EQ(t.value, 90.0);
    EXPECT_EQ(t.beyond, 10u);

    // 20000 samples reach the top rung.
    t = tailPercentile(oneTo(20000));
    EXPECT_DOUBLE_EQ(t.percentile, 99.9);
    EXPECT_EQ(t.beyond, 20u);
}

TEST(TailPercentile, TooFewSamplesFallBackToMedianRung)
{
    Tail t = tailPercentile(oneTo(15));
    EXPECT_DOUBLE_EQ(t.percentile, 50.0);
    EXPECT_DOUBLE_EQ(t.value, 8.0);
    EXPECT_EQ(t.beyond, 7u);

    t = tailPercentile({});
    EXPECT_EQ(t.n, 0u);
    EXPECT_DOUBLE_EQ(t.value, 0.0);
}

TEST(TailPercentile, RungCanBeFixedBySmallestRunSize)
{
    // Chosen for 100 samples (p90), read from 1000: 100 beyond.
    Tail t = tailPercentile(oneTo(1000), 10, 100);
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_DOUBLE_EQ(t.value, 900.0);
    EXPECT_EQ(t.n, 1000u);
    EXPECT_EQ(t.beyond, 100u);
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter)
{
    std::vector<double> v = oneTo(200);
    std::reverse(v.begin(), v.end());
    Tail t = tailPercentile(v);
    EXPECT_DOUBLE_EQ(t.percentile, 95.0);
    EXPECT_DOUBLE_EQ(t.value, 190.0);
}

TEST(Geomean, OfPositiveValues)
{
    EXPECT_NEAR(geomean({1, 100}), 10.0, 1e-12);
    EXPECT_NEAR(geomean({2, 8}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({5}), 5.0, 1e-12);
}

TEST(Geomean, EmptyOrNonPositiveIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({3, 0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({3, -1}), 0.0);
}

TEST(Tally, CountsFailuresAgainstAttempts)
{
    Tally t;
    EXPECT_DOUBLE_EQ(t.failFrac(), 0.0);
    t.record(true, "ok");
    t.record(false, "ResNet-50@200: OOM");
    t.count(10, 2, "audit mismatch");
    t.count(5, 0, "lint");
    EXPECT_EQ(t.attempted(), 17u);
    EXPECT_EQ(t.failed(), 3u);
    EXPECT_DOUBLE_EQ(t.failFrac(), 3.0 / 17.0);
    ASSERT_EQ(t.failures().size(), 2u);
    EXPECT_EQ(t.failures()[0], "ResNet-50@200: OOM");
    EXPECT_EQ(t.failures()[1], "audit mismatch (x2)");

    Tally other;
    other.record(false, "digest");
    t.merge(other);
    EXPECT_EQ(t.attempted(), 18u);
    EXPECT_EQ(t.failed(), 4u);
    EXPECT_EQ(t.failures().back(), "digest");
}

Span
span(const char *name, double b, double e, int parent)
{
    Span s;
    s.name = name;
    s.startUs = b;
    s.endUs = e;
    s.parent = parent;
    return s;
}

TEST(SpanSelfTime, OverlappingChildrenCountOnce)
{
    std::vector<Span> spans = {
        span("exec.iter", 0, 100, -1),
        span("analysis.lint", 10, 40, 0),
        span("analysis.lint", 30, 60, 0), // overlaps the first child
        span("core.plan", 90, 120, 0),    // sticks out of the parent
    };
    std::vector<double> self = selfTimesUs(spans);
    // Children cover [10, 60] and [90, 100] of the parent: 60 us.
    EXPECT_DOUBLE_EQ(self[0], 40.0);
    EXPECT_DOUBLE_EQ(self[1], 30.0);
    EXPECT_DOUBLE_EQ(self[2], 30.0);
    EXPECT_DOUBLE_EQ(self[3], 30.0);
}

TEST(SpanSelfTime, OnlyDirectChildrenAreSubtracted)
{
    std::vector<Span> spans = {
        span("search.find", 0, 100, -1),
        span("models.build", 10, 50, 0),
        span("models.inner", 20, 30, 1),
        span("models.build", 50, 50, 0), // empty child
    };
    std::vector<double> self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[0], 60.0);
    EXPECT_DOUBLE_EQ(self[1], 30.0);
    EXPECT_DOUBLE_EQ(self[2], 10.0);
    EXPECT_DOUBLE_EQ(self[3], 0.0);

    std::map<std::string, double> layers = layerSelfMs(spans);
    EXPECT_DOUBLE_EQ(layers["search"], 0.060);
    EXPECT_DOUBLE_EQ(layers["models"], 0.040);
}

TEST(SpanRecorder, NestsRenamesAndStaysEmptyWhenDisabled)
{
    SpanRecorder off(false);
    {
        SpanRecorder::Scope s(off, "exec.iter");
        EXPECT_EQ(s.id(), -1);
    }
    EXPECT_TRUE(off.spans().empty());

    SpanRecorder rec(true);
    int outer = rec.open("exec.iter");
    {
        SpanRecorder::Scope inner(rec, "analysis.lint", 7);
        EXPECT_EQ(inner.id(), 1);
    }
    rec.close(outer);
    rec.rename(outer, "replay.synth");
    int next = rec.open("exec.iter");
    rec.close(next);

    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_STREQ(rec.spans()[0].name, "replay.synth");
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[1].request, 7);
    EXPECT_EQ(rec.spans()[2].parent, -1);
    for (const Span &s : rec.spans())
        EXPECT_LE(s.startUs, s.endUs);
    EXPECT_EQ(spanLayer("serve.hit"), "serve");
}

} // namespace
} // namespace perfbench
