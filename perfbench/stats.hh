/**
 * @file
 * The benchmark's own statistics: medians and quartiles of repeated
 * samples, the tail-percentile rule for latencies, geometric means over
 * models, and the attempted/failed tally behind the failure share.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Median of `v` (mean of the two middle values for even sizes); 0 when
 *  empty. */
double median(std::vector<double> v);

struct Quartiles
{
    double q1 = 0;
    double q2 = 0;
    double q3 = 0;
};

/**
 * First, second and third quartile by the same rule as Python's
 * `statistics.quantiles(values, n=4)` (the default "exclusive" method),
 * so the benchmark's spread figures match what a reader recomputes from
 * its printed samples. A single sample is returned as all three.
 */
Quartiles quartiles(std::vector<double> v);

/** (q3 - q1) / q2, the run-to-run spread as a share of the median. */
double relativeSpread(const std::vector<double> &v);

/** Latency at the highest percentile with enough samples beyond it. */
struct Tail
{
    double value = 0;
    /** The percentile reported, e.g. 99 for p99. */
    double percentile = 0;
    /** Sample count the percentile was taken over. */
    std::size_t n = 0;
    /** Samples strictly above the percentile's rank. */
    std::size_t beyond = 0;
};

/** The percentile ladder the tail rule picks from, highest first. */
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0,
                                         50.0};

/**
 * The tail rule: walk kTailLadder from the top and return the first
 * percentile whose nearest-rank position leaves at least `min_beyond`
 * samples above it. With too few samples for any rung the median rung is
 * returned and `beyond` says how thin it is.
 *
 * `rung_n`, when nonzero, picks the rung as if there were `rung_n`
 * samples, then reads that percentile from all of `v`. Passing the
 * smallest sample count a run can end with makes every run of a
 * workload report the same percentile, however many samples it got.
 */
Tail tailPercentile(std::vector<double> v, std::size_t min_beyond = 10,
                    std::size_t rung_n = 0);

/** Geometric mean; 0 when empty or when any value is not positive. */
double geomean(const std::vector<double> &v);

/**
 * Attempted/failed operations of one run. Every check the benchmark
 * makes on the program's output is one attempted operation; a check that
 * does not hold is a failure, recorded with a reason for the report.
 */
class Tally
{
  public:
    /** Count one operation; `what` describes it when `ok` is false. */
    void record(bool ok, const std::string &what);
    /** Count `attempted` operations of which `failed` failed. */
    void count(std::uint64_t attempted, std::uint64_t failed,
               const std::string &what);
    void merge(const Tally &other);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** failed / attempted; 0 before anything was attempted. */
    double failFrac() const;
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
