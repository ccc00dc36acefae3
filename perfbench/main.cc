/**
 * @file
 * perfbench — the repository benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--workdir <dir>]
 *
 * --trace 0 runs passes of the workload for --seconds with tracing off
 * and prints the end-to-end metrics. --trace 1 runs the traced passes
 * (benchmark spans, then the program's metrics and full observability
 * levels) beside untraced ones and prints the per-layer metrics. Either
 * way the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}, and the exit code is 1
 * when any output check failed, 2 on a usage error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/** A run always measures at least this many passes, however long. */
constexpr std::size_t kMinPasses = 10;

struct Args
{
    Workload workload = Workload::TrainDeep;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".bench_build/run";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "<train-deep|train-long|maxbatch|serve-churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string val = argv[++i];
        try {
            if (key == "--workload") {
                auto w = workloadFromName(val);
                if (!w)
                    usage("unknown workload '" + val + "'");
                a.workload = *w;
                have_workload = true;
            } else if (key == "--seed") {
                a.seed = std::stoull(val);
            } else if (key == "--seconds") {
                a.seconds = std::stod(val);
            } else if (key == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                a.trace = val == "1";
            } else if (key == "--workdir") {
                a.workdir = val;
            } else {
                usage("unknown argument " + key);
            }
        } catch (const std::exception &) {
            usage("bad value '" + val + "' for " + key);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double
valueOr(const std::map<std::string, double> &m, const std::string &key)
{
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

double
total(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Every simulated outcome of `p` must equal that of `ref`. */
void
checkSameSim(Tally &tally, const PassResult &ref, const PassResult &p,
             const std::string &what)
{
    bool same = ref.sim == p.sim;
    if (!same) {
        for (const auto &[k, v] : ref.sim) {
            double other = valueOr(p.sim, k);
            if (other != v) {
                std::cerr << "perfbench: " << what << ": " << k << " = "
                          << std::setprecision(17) << other << ", expected "
                          << v << "\n";
                break;
            }
        }
    }
    tally.record(same, what + ": simulated outcome differs");
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

void
printResult(const std::vector<Metric> &metrics, const Tally &tally)
{
    for (const Metric &m : metrics) {
        std::cout << "  " << std::left << std::setw(36) << m.name
                  << std::setw(14) << std::setprecision(6) << m.value << " "
                  << std::setw(14) << m.unit << m.note << "\n";
    }
    std::cout << "  fail_frac " << tally.failFrac() << " (" << tally.failed()
              << " of " << tally.attempted() << " operations failed)\n";
    for (const std::string &f : tally.failures())
        std::cout << "  FAILED: " << f << "\n";

    std::ostringstream js;
    js << std::setprecision(17);
    js << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted()
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
}

std::string
tailNote(const Tail &t)
{
    std::ostringstream os;
    os << "p" << t.percentile << " of " << t.n << " requests, " << t.beyond
       << " beyond";
    return os.str();
}

int
endToEnd(const RunInputs &in, const Args &a)
{
    SpanRecorder off(false);
    std::vector<PassResult> passes;
    const auto start = Clock::now();
    do {
        passes.push_back(
            runPass(in, static_cast<int>(passes.size()), {}, off));
    } while (secondsSince(start) < a.seconds || passes.size() < kMinPasses);

    Tally tally;
    std::vector<double> host, setup, req_ms;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const PassResult &r = passes[p];
        tally.merge(r.tally);
        if (p > 0)
            checkSameSim(tally, passes[0], r,
                         "pass " + std::to_string(p) + " vs pass 0");
        host.push_back(r.hostS);
        setup.push_back(r.setupS);
        req_ms.insert(req_ms.end(), r.requestMs.begin(), r.requestMs.end());
    }
    // Every pass makes the same number of requests. The tail percentile is
    // chosen for the smallest run (kMinPasses passes), so every run of a
    // workload reports the same percentile however many passes it fit.
    const Tail tail = tailPercentile(
        req_ms, 10, kMinPasses * passes[0].requestMs.size());
    const PassResult &first = passes[0];

    std::cout << "perfbench " << workloadName(in.workload) << " seed "
              << in.seed << ": " << passes.size() << " passes, "
              << req_ms.size() << " requests in "
              << std::setprecision(4) << secondsSince(start) << " s\n";
    if (in.workload == Workload::ServeChurn) {
        std::map<std::string, long long> mix;
        for (const PassResult &r : passes) {
            for (const char *k : {"serve.requests", "serve.hits",
                                  "serve.disk", "serve.measured",
                                  "serve.evictions"})
                mix[k] += std::llround(valueOr(r.layer, k));
        }
        std::cout << "  serve stream: seed " << in.seed << ", "
                  << mix["serve.requests"]
                  << " requests over 20 keys, cache 8; mix "
                  << mix["serve.hits"] << " hit / " << mix["serve.disk"]
                  << " disk / " << mix["serve.measured"] << " measure, "
                  << mix["serve.evictions"] << " evictions\n";
    }
    std::cout << "  pass host s:";
    for (double h : host)
        std::cout << " " << std::setprecision(4) << h;
    std::cout << "\n";
    std::ostringstream spread;
    spread << "median of " << host.size() << " passes, IQR/median "
           << std::setprecision(3) << relativeSpread(host);
    std::vector<Metric> metrics = {
        {"host_s", median(host), "s", spread.str()},
        {"setup_s", median(setup), "s", "median of per-pass set-ups"},
        {"peak_rss_mb", peakRssMiB(), "MiB", ""},
        {"ok_frac", 1.0 - tally.failFrac(), "ratio", "1 - fail_frac"},
        {"sim_samples_per_s", valueOr(first.sim, "samples_per_s"),
         "sim_samples/s", "geomean over models"},
        {"sim_max_batch", valueOr(first.sim, "max_batch"), "sim_samples",
         "geomean over models"},
        {"paper_err_frac", valueOr(first.sim, "paper_err"), "ratio",
         in.workload == Workload::MaxBatch ? "vs Table 2"
                                           : "no paper number; constant 1"},
        {"req_per_s", ratio(static_cast<double>(req_ms.size()), total(host)),
         "req/s", ""},
        {"req_p50_ms", median(req_ms), "ms", ""},
        {"req_tail_ms", tail.value, "ms", tailNote(tail)},
    };
    printResult(metrics, tally);
    return tally.failed() == 0 ? 0 : 1;
}

/** Durations of the spans named `name`, in ms. */
std::vector<double>
spanMs(const std::vector<Span> &spans, const char *name)
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (std::string_view(s.name) == name)
            out.push_back((s.endUs - s.startUs) / 1000.0);
    }
    return out;
}

int
traced(const RunInputs &in, const Args &a)
{
    using capu::obs::ObsLevel;
    Tally tally;
    SpanRecorder off(false);

    // Untraced and traced passes alternate so drift hits both alike. Both
    // train one step per Session::run call, so steps get their own spans.
    PassOptions step;
    step.stepping = PassOptions::Stepping::Step;
    std::vector<PassResult> base, spanned;
    SpanRecorder rec(true);
    const auto start = Clock::now();
    int pass = 0;
    do {
        base.push_back(runPass(in, pass, step, off));
        // Only the first traced pass's spans are kept; later ones are
        // recorded just as expensively, then dropped.
        SpanRecorder dropped(true);
        spanned.push_back(
            runPass(in, pass, step, spanned.empty() ? rec : dropped));
        ++pass;
    } while (secondsSince(start) < a.seconds / 2 || pass < 2);
    const PassResult &ref = base[0];
    for (std::size_t p = 0; p < spanned.size(); ++p)
        checkSameSim(tally, base[p], spanned[p],
                     "traced pass " + std::to_string(p));

    // Pass 0 again in the end-to-end configuration (one epoch per call),
    // in one call per model, and at the observability levels: the
    // simulated outcome may not change.
    PassOptions whole;
    whole.stepping = PassOptions::Stepping::Whole;
    PassOptions metrics_level;
    metrics_level.obs = ObsLevel::Metrics;
    PassOptions full_level;
    full_level.obs = ObsLevel::Full;
    const PassResult epoch = runPass(in, 0, {}, off);
    checkSameSim(tally, ref, epoch, "end-to-end pass");
    const PassResult met = runPass(in, 0, metrics_level, off);
    checkSameSim(tally, ref, met, "metrics-level pass");
    const PassResult full = runPass(in, 0, full_level, off);
    checkSameSim(tally, ref, full, "full-trace pass");
    std::vector<PassResult> extra;
    if (in.workload == Workload::TrainDeep ||
        in.workload == Workload::TrainLong) {
        extra.push_back(runPass(in, 0, whole, off));
        checkSameSim(tally, ref, extra.back(),
                     "Session::run(n) vs run(1) x n");
    }
    double cache64_ratio = 0;
    if (in.workload == Workload::ServeChurn) {
        PassOptions big;
        big.cacheEntries = 64;
        extra.push_back(runPass(in, 0, big, off));
        cache64_ratio = ratio(extra.back().hostS, epoch.hostS);
    }
    for (const auto *group : {&base, &spanned, &extra}) {
        for (const PassResult &r : *group)
            tally.merge(r.tally);
    }
    tally.merge(epoch.tally);
    // The observability passes are checked through their simulated outcome
    // above. Their replay audit mismatches are reported as a metric, not
    // counted as failures: they measure the observability levels, and a
    // mismatch only makes replay fall back to executing.
    const double obs_mismatches =
        valueOr(met.layer, "replay.audit_mismatches") +
        valueOr(full.layer, "replay.audit_mismatches");

    // Overheads compare passes over the same inputs: each traced pass with
    // the untraced pass of the same index, the observability levels and
    // the larger cache with the end-to-end pass 0.
    std::vector<double> span_ratio;
    for (std::size_t p = 0; p < base.size(); ++p)
        span_ratio.push_back(ratio(spanned[p].hostS, base[p].hostS));
    const double base_s = epoch.hostS;

    const std::vector<Span> &spans = rec.spans();
    const std::map<std::string, double> self = layerSelfMs(spans);
    const std::vector<double> iter_ms = spanMs(spans, "exec.iter");
    const Tail iter_tail = tailPercentile(iter_ms);
    std::vector<double> synth_us = spanMs(spans, "replay.synth");
    for (double &x : synth_us)
        x *= 1000.0;

    const auto &L = ref.layer;
    const auto &S = ref.sim;
    const auto &C = met.layer;
    const double iters = valueOr(S, "total.iterations");
    const double executed = valueOr(L, "replay.executed");
    const double replayed = valueOr(L, "replay.replayed");
    const double requests = valueOr(L, "serve.requests");

    std::vector<Metric> metrics = {
        {"models.build_ms", median(spanMs(spans, "models.build")), "ms",
         "p50 graph build"},
        {"models.self_ms", valueOr(self, "models"), "ms", ""},
        {"exec.session_new_ms", median(spanMs(spans, "exec.session_new")),
         "ms", "p50"},
        {"exec.iter_ms_p50", median(iter_ms), "ms",
         "run(1) calls that executed"},
        {"exec.iter_ms_tail", iter_tail.value, "ms", tailNote(iter_tail)},
        {"exec.executed_iters", executed, "count", ""},
        {"exec.self_ms", valueOr(self, "exec"), "ms", ""},
        {"search.probes", valueOr(L, "search.probes"), "count", ""},
        {"search.self_ms", valueOr(self, "search"), "ms", ""},
        {"replay.armed_models", valueOr(L, "replay.armed_models"), "count",
         ""},
        {"replay.synth_frac", ratio(replayed, executed + replayed), "ratio",
         ""},
        {"replay.synth_iter_us_p50", median(synth_us), "us", ""},
        {"replay.audits", valueOr(L, "replay.audits"), "count", ""},
        {"replay.audit_mismatches", valueOr(L, "replay.audit_mismatches"),
         "count", ""},
        {"replay.self_ms", valueOr(self, "replay"), "ms", ""},
        {"core.plan_build_ms_p50", median(spanMs(spans, "core.plan_build")),
         "ms", "standalone PolicyMaker::build"},
        {"core.plan_builds", valueOr(C, "counter.plan.builds"), "count", ""},
        {"core.plan_revisions", valueOr(C, "counter.plan.revisions"),
         "count", ""},
        {"core.plan_items", valueOr(L, "core.plan_items"), "count", ""},
        {"core.feedback_adjustments_per_iter",
         ratio(valueOr(C, "counter.feedback.adjustments"), iters),
         "count/iter", ""},
        {"core.prefetch_miss_frac",
         ratio(valueOr(C, "counter.prefetch.miss"),
               valueOr(C, "counter.prefetch.count")),
         "ratio", ""},
        {"core.self_ms", valueOr(self, "core"), "ms", ""},
        {"memory.bfc_splits_per_iter",
         ratio(valueOr(C, "counter.bfc.splits"), iters), "count/iter", ""},
        {"memory.bfc_merges_per_iter",
         ratio(valueOr(C, "counter.bfc.merges"), iters), "count/iter", ""},
        {"memory.bfc_failed_allocs", valueOr(C, "counter.bfc.failed_allocs"),
         "count", ""},
        {"memory.oom_evictions", valueOr(L, "memory.oom_evictions"), "count",
         ""},
        {"sim.swap_gb_per_iter",
         ratio(valueOr(S, "total.swap_bytes") / 1e9, iters), "sim_GB/iter",
         ""},
        {"sim.input_stall_ms_per_iter",
         ratio(valueOr(S, "total.input_stall_ms"), iters), "sim_ms/iter", ""},
        {"sim.alloc_stall_ms_per_iter",
         ratio(valueOr(S, "total.alloc_stall_ms"), iters), "sim_ms/iter", ""},
        {"sim.prefetch_stall_ms_per_iter",
         ratio(valueOr(S, "total.prefetch_stall_ms"), iters), "sim_ms/iter",
         ""},
        {"sim.recompute_ms_per_iter",
         ratio(valueOr(S, "total.recompute_ms"), iters), "sim_ms/iter", ""},
        {"obs.metrics_overhead_frac", ratio(met.hostS, base_s) - 1.0,
         "ratio", "ObsLevel::Metrics vs Off"},
        {"obs.trace_overhead_frac", ratio(full.hostS, base_s) - 1.0, "ratio",
         "ObsLevel::Full vs Off"},
        {"obs.audit_mismatches", obs_mismatches, "count",
         "replay audit mismatches at Metrics and Full"},
        {"analysis.lint_ms", total(spanMs(spans, "analysis.lint")), "ms",
         "total over the traced pass"},
        {"analysis.lint_calls", valueOr(L, "analysis.lint_calls"), "count",
         ""},
        {"analysis.errors", valueOr(L, "analysis.errors"), "count", ""},
        {"analysis.self_ms", valueOr(self, "analysis"), "ms", ""},
        {"serve.hit_frac", ratio(valueOr(L, "serve.hits"), requests),
         "ratio", ""},
        {"serve.disk_frac", ratio(valueOr(L, "serve.disk"), requests),
         "ratio", ""},
        {"serve.measure_frac", ratio(valueOr(L, "serve.measured"), requests),
         "ratio", ""},
        {"serve.evictions", valueOr(L, "serve.evictions"), "count", ""},
        {"serve.hit_ms_p50", median(spanMs(spans, "serve.hit")), "ms", ""},
        {"serve.disk_ms_p50", median(spanMs(spans, "serve.disk")), "ms", ""},
        {"serve.measure_ms_p50", median(spanMs(spans, "serve.measure")), "ms",
         ""},
        {"serve.cache64_time_ratio", cache64_ratio, "ratio",
         "host time, cache 64 vs 8 entries"},
        {"serve.self_ms", valueOr(self, "serve"), "ms", ""},
        {"bench.span_overhead_frac", median(span_ratio) - 1.0, "ratio",
         "benchmark spans vs untraced, median over pairs"},
    };

    const std::string span_file =
        (std::filesystem::path(in.workdir).parent_path() /
         ("spans-" + std::string(workloadName(in.workload)) + "-seed" +
          std::to_string(in.seed) + ".json"))
            .string();
    {
        std::ofstream os(span_file);
        writeSpansJson(os, spans);
    }
    std::cout << "perfbench " << workloadName(in.workload) << " seed "
              << in.seed << " traced: " << base.size()
              << " untraced/traced pass pairs, " << spans.size()
              << " spans written to " << span_file << ", peak RSS "
              << peakRssMiB() << " MiB\n";
    printResult(metrics, tally);
    return tally.failed() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    capu::setLogEnabled(false);
    // A private scratch directory per process, removed on exit.
    const std::filesystem::path dir =
        std::filesystem::path(a.workdir) /
        ("run-" + std::to_string(static_cast<long>(getpid())));
    std::filesystem::create_directories(dir);
    const RunInputs in{a.workload, a.seed, dir.string()};
    int rc = 1;
    try {
        rc = a.trace ? traced(in, a) : endToEnd(in, a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        rc = 1;
    }
    std::filesystem::remove_all(dir);
    return rc;
}
