#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

Quartiles
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {};
    std::sort(v.begin(), v.end());
    if (v.size() == 1)
        return {v[0], v[0], v[0]};
    // statistics.quantiles(method="exclusive"): rescale i to m/n with
    // m = len + 1, clamp the lower index to [1, len - 1] and interpolate
    // in exact integer steps of 1/n.
    const long n = 4;
    const long len = static_cast<long>(v.size());
    const long m = len + 1;
    double q[3];
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, len - 1);
        long delta = i * m - j * n;
        q[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                        static_cast<double>(n - delta) +
                    v[static_cast<std::size_t>(j)] *
                        static_cast<double>(delta)) /
                   static_cast<double>(n);
    }
    return {q[0], q[1], q[2]};
}

double
relativeSpread(const std::vector<double> &v)
{
    Quartiles q = quartiles(v);
    return q.q2 != 0.0 ? (q.q3 - q.q1) / std::fabs(q.q2) : 0.0;
}

namespace
{

/** Nearest rank of percentile `p` among `n` samples, in exact integer
 *  steps of 0.1%: the smallest rank with at least p% at or below it. */
std::size_t
nearestRank(double p, std::size_t n)
{
    const auto permille = static_cast<std::size_t>(std::lround(p * 10));
    return std::clamp<std::size_t>((permille * n + 999) / 1000, 1, n);
}

} // namespace

Tail
tailPercentile(std::vector<double> v, std::size_t min_beyond,
               std::size_t rung_n)
{
    Tail t;
    t.n = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t pick_n = rung_n > 0 ? rung_n : v.size();
    for (double p : kTailLadder) {
        t.percentile = p;
        if (pick_n - nearestRank(p, pick_n) >= min_beyond)
            break;
    }
    const std::size_t rank = nearestRank(t.percentile, v.size());
    t.value = v[rank - 1];
    t.beyond = v.size() - rank;
    return t;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v) {
        if (!(x > 0.0))
            return 0.0;
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

void
Tally::record(bool ok, const std::string &what)
{
    count(1, ok ? 0 : 1, what);
}

void
Tally::count(std::uint64_t attempted, std::uint64_t failed,
             const std::string &what)
{
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0)
        failures_.push_back(failed == 1 ? what
                                        : what + " (x" +
                                              std::to_string(failed) + ")");
}

void
Tally::merge(const Tally &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    failures_.insert(failures_.end(), other.failures_.begin(),
                     other.failures_.end());
}

double
Tally::failFrac() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

} // namespace perfbench
