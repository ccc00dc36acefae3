/**
 * @file
 * Self-timing perf harness + regression gate (BENCH_perf.json).
 *
 * Measures the hot paths this repo optimises, per zoo model:
 *
 *  - plan derivation: PolicyMaker::build on a tracker filled by a real
 *    measured iteration at an oversubscribed batch. (Plan equality with
 *    the full-rescan oracle is asserted by the IncrementalPlan tests.)
 *  - simulation throughput: executed schedule steps per wall second for
 *    a Capuchin-managed training run.
 *  - allocator latency: ns per BfcAllocator allocate/deallocate over a
 *    deterministic mixed small/large workload.
 *  - sweep parallelism: wall time of a zoo mini-sweep serial vs on the
 *    work-stealing pool (reported only; the speedup gate applies when
 *    >= 4 workers are available).
 *  - steady-state replay: a long training session with capureplay on vs
 *    off. The two runs are asserted bit-identical (every IterationStats
 *    field, including begin/end ticks) before the speedup is reported;
 *    the full run must clear 3x.
 *  - max-batch search: findMaxBatch (memoized, galloping, replay-armed
 *    probes), serial vs speculative at up to 8 jobs, asserted to agree.
 *    (Agreement with plain bisection is asserted by the MaxBatchSearch
 *    tests.)
 *
 * Timings are median-of-N (--repeat). A calibration spin — a fixed
 * integer workload timed on the same machine — is recorded next to the
 * metrics so the regression gate can compare *machine-normalized* times:
 * with --baseline FILE the harness fails (exit 1) when a gated metric,
 * divided by its run's calibration time, exceeds 2x the baseline's
 * normalized value. The tolerance is deliberately generous: this gate
 * catches algorithmic regressions (an accidental O(n^2) rescan), not
 * noise.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "core/policy_maker.hh"
#include "memory/bfc_allocator.hh"
#include "models/workload.hh"
#include "prof/profile.hh"
#include "support/units.hh"

using namespace capu;
using namespace capu::bench;

namespace
{

struct Options
{
    bool quick = false;
    int repeat = 3;
    unsigned threads = 0; ///< ladder/jobs cap; 0 = uncapped (1/2/4/8)
    std::string out = "BENCH_perf.json";
    std::string baseline;
};

/** Oversubscribed batches: passive mode must evict, so the tracker and
 *  measured-eviction target feed PolicyMaker a non-trivial problem. */
struct ModelCase
{
    ModelKind kind;
    std::int64_t batch;
};

const ModelCase kCases[] = {
    {ModelKind::Vgg16, 260},       {ModelKind::ResNet50, 240},
    {ModelKind::ResNet152, 110},   {ModelKind::InceptionV3, 210},
    {ModelKind::InceptionV4, 120}, {ModelKind::DenseNet121, 200},
    {ModelKind::BertBase, 110},
};

const ModelCase kQuickCases[] = {
    {ModelKind::Vgg16, 260},
    {ModelKind::ResNet50, 240},
};

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** Median of the collected samples (sorted copy; even count averages). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Calibration spin: a fixed xorshift64 integer workload. Its wall time
 * scales with single-core speed the same way the plan/sim loops do, so
 * metric / spin is comparable across machines (and across Debug-ish
 * compiler updates) in a way raw milliseconds are not.
 */
double
calibrationSpinMs()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    volatile std::uint64_t sink = 0;
    double t0 = nowMs();
    for (int i = 0; i < 50'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    sink = x;
    (void)sink;
    return nowMs() - t0;
}

struct ModelResult
{
    std::string name;
    std::int64_t batch = 0;
    double planMs = 0;
    std::size_t planItems = 0;
    /** False when the run OOMed or built no plan. */
    bool ok = true;
    double simWallMs = 0;
    double simStepsPerSec = 0;
};

/**
 * One model's measurements. The Session run supplies three things at
 * once: the measured tracker + eviction target PolicyMaker needs, the
 * sim-throughput sample, and proof the batch actually oversubscribes.
 */
ModelResult
runModel(const ModelCase &mc, const Options &opt)
{
    ModelResult res;
    res.name = modelName(mc.kind);
    res.batch = mc.batch;

    ExecConfig cfg;
    CapuchinOptions copts;
    Session session(buildModel(mc.kind, mc.batch), cfg,
                    makeCapuchinPolicy(copts));
    const int iters = opt.quick ? 2 : 3;
    double t0 = nowMs();
    auto r = session.run(iters);
    res.simWallMs = nowMs() - t0;
    if (r.oom) {
        std::cerr << res.name << "@" << mc.batch
                  << ": unexpected OOM\n" << r.postMortem() << "\n";
        res.ok = false;
        return res;
    }
    Executor &ex = session.executor();
    res.simStepsPerSec = res.simWallMs > 0
                             ? static_cast<double>(ex.schedule().size()) *
                                   iters / (res.simWallMs / 1000.0)
                             : 0;

    auto *capu = dynamic_cast<CapuchinPolicy *>(session.policy());
    if (capu == nullptr || !capu->planBuilt()) {
        std::cerr << res.name << ": no plan was built (batch not "
                     "oversubscribed?)\n";
        res.ok = false;
        return res;
    }

    // Rebuild the plan standalone, with the exact inputs
    // CapuchinPolicy::buildPlan uses.
    auto target = static_cast<std::uint64_t>(
        static_cast<double>(capu->measuredEvictedBytes()) *
        copts.savingMargin);
    auto bytes_fn = [&](TensorId id) { return ex.tensorBytes(id); };
    auto swap_fn = [&](std::uint64_t b) { return ex.swapTime(b); };

    Plan plan;
    std::vector<double> ms;
    for (int i = 0; i < opt.repeat; ++i) {
        PolicyMaker maker(session.graph(), capu->tracker());
        double a = nowMs();
        plan = maker.build(target, bytes_fn, swap_fn, ex.gpuCapacity());
        ms.push_back(nowMs() - a);
    }
    res.planMs = median(ms);
    res.planItems = plan.items.size();
    return res;
}

/** One rung of the sweep scaling ladder. */
struct SweepConfig
{
    unsigned threads = 1;
    double parallelMs = 0;
    double speedup = 1.0;
    /** Whether the hard floor applied (enough hardware threads). */
    bool gated = false;
};

struct SweepResult
{
    unsigned hardwareThreads = 0;
    double serialMs = 0;
    bool resultsIdentical = true;
    std::vector<SweepConfig> configs;
};

/**
 * Parallel-sweep scaling ladder: the same cell list run serially, then
 * on pools of 1/2/4/8 workers. Cells are small independent sims (the
 * pattern every bench sweep uses), so this measures pool overhead +
 * scaling, not model size. Every rung's results must be bit-identical
 * to the serial pass; speedup floors are enforced only on rungs the
 * hardware can actually parallelize (hardware_concurrency >= rung), so
 * a 1-core CI box records honest numbers without false-failing.
 */
SweepResult
runSweep(unsigned max_threads, bool quick)
{
    SweepResult res;
    res.hardwareThreads = std::thread::hardware_concurrency();
    const std::size_t n = 16;
    auto cell = [&](std::size_t i) {
        ModelKind kind =
            i % 2 ? ModelKind::ResNet50 : ModelKind::Vgg16;
        Session session(buildModel(kind, 32), ExecConfig{},
                        makeNoOpPolicy());
        auto r = session.run(quick ? 1 : 2);
        return r.oom ? 0.0 : r.steadyThroughput(32, 0);
    };

    std::vector<double> serial(n);
    double t0 = nowMs();
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = cell(i);
    res.serialMs = nowMs() - t0;

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        if (max_threads && threads > max_threads)
            break;
        SweepConfig cfg;
        cfg.threads = threads;
        std::vector<double> par(n);
        t0 = nowMs();
        {
            ThreadPool pool(threads);
            pool.forEachIndex(n, [&](std::size_t i) { par[i] = cell(i); });
        }
        cfg.parallelMs = nowMs() - t0;
        cfg.speedup =
            cfg.parallelMs > 0 ? res.serialMs / cfg.parallelMs : 1.0;
        cfg.gated = res.hardwareThreads >= threads;
        if (par != serial) {
            res.resultsIdentical = false;
            std::cerr << "SWEEP RESULTS DIVERGE between serial and "
                      << threads << "-thread runs\n";
        }
        res.configs.push_back(cfg);
    }
    return res;
}

struct AllocResult
{
    double nsPerOp = 0;
    std::uint64_t ops = 0;
};

/**
 * Deterministic allocator churn: a sliding window of live allocations
 * with xorshift-chosen sizes spanning both the small best-fit path and
 * the large (segregated, high-address) path, plus periodic frees that
 * force coalescing.
 */
AllocResult
runAllocator(bool quick)
{
    AllocResult res;
    BfcAllocator alloc(16ull << 30);
    std::vector<MemHandle> live;
    live.reserve(4096);
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    auto rnd = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const std::uint64_t target_ops = quick ? 50'000 : 400'000;
    std::uint64_t ops = 0;
    double t0 = nowMs();
    while (ops < target_ops) {
        std::uint64_t r = rnd();
        bool do_free = !live.empty() && (live.size() > 2048 || (r & 7) == 0);
        if (do_free) {
            std::size_t idx = rnd() % live.size();
            alloc.deallocate(live[idx]);
            live[idx] = live.back();
            live.pop_back();
            ++ops;
            continue;
        }
        // 1-in-16 large (64..320 MiB), else small (4 KiB..4 MiB).
        std::uint64_t bytes =
            (r & 15) == 0 ? (64ull << 20) + (rnd() % (256ull << 20))
                          : (4ull << 10) + (rnd() % (4ull << 20));
        auto h = alloc.allocate(bytes);
        if (h)
            live.push_back(*h);
        else if (!live.empty()) {
            alloc.deallocate(live.back());
            live.pop_back();
        }
        ++ops;
    }
    double wall = nowMs() - t0;
    alloc.checkInvariants();
    res.ops = ops;
    res.nsPerOp = ops > 0 ? wall * 1e6 / static_cast<double>(ops) : 0;
    return res;
}

/** Replay-friendly cases: the Capuchin feedback loop reaches a fixed
 *  point within the first ~10 iterations at these batches, so a long
 *  session is dominated by synthesized iterations. */
const ModelCase kReplayCases[] = {
    {ModelKind::Vgg16, 230},
    {ModelKind::ResNet50, 200},
    {ModelKind::BertBase, 64},
};

const ModelCase kQuickReplayCases[] = {
    {ModelKind::Vgg16, 230},
};

struct ReplayResult
{
    std::string name;
    std::int64_t batch = 0;
    int iterations = 0;
    double offMs = 0;
    double onMs = 0;
    double speedup = 0;
    int executed = 0;
    int replayed = 0;
    bool identical = true;
};

/** Every field of every iteration, including absolute begin/end ticks:
 *  replay is only a win if it is indistinguishable from execution. */
bool
resultsIdentical(const SessionResult &a, const SessionResult &b)
{
    return !a.oom && !b.oom && a.iterations == b.iterations;
}

/**
 * One long Capuchin session with replay off, then on. Graph building is
 * kept outside the timed region (both variants pay it identically).
 */
ReplayResult
runReplay(const ModelCase &mc, const Options &opt)
{
    ReplayResult res;
    res.name = modelName(mc.kind);
    res.batch = mc.batch;
    res.iterations = opt.quick ? 40 : 100;

    Graph g_off = buildModel(mc.kind, mc.batch);
    Graph g_on = buildModel(mc.kind, mc.batch);

    ExecConfig cfg_off;
    double t0 = nowMs();
    Session off(std::move(g_off), cfg_off, makeCapuchinPolicy());
    auto r_off = off.run(res.iterations);
    res.offMs = nowMs() - t0;

    ExecConfig cfg_on;
    cfg_on.replay.enabled = true;
    t0 = nowMs();
    Session on(std::move(g_on), cfg_on, makeCapuchinPolicy());
    auto r_on = on.run(res.iterations);
    res.onMs = nowMs() - t0;

    res.executed = r_on.replay.executed;
    res.replayed = r_on.replay.replayed;
    res.speedup = res.onMs > 0 ? res.offMs / res.onMs : 0;
    res.identical = resultsIdentical(r_off, r_on);
    if (!res.identical)
        std::cerr << res.name << "@" << mc.batch
                  << ": REPLAY RUN DIVERGES FROM EXECUTED RUN\n";
    return res;
}

struct ProfileBenchResult
{
    std::string name;
    std::int64_t batch = 0;
    std::uint64_t events = 0;
    double buildMs = 0; ///< median buildProfile wall over --repeat
    double eventsPerSec = 0;
    bool conserved = false; ///< bucket sum == wall, exactly
};

/**
 * capuprof analytics cost: buildProfile (bucket sweep + tensor ledger +
 * happens-before critical path) over a fully traced Capuchin session.
 * Post-hoc tooling must stay cheap enough to run after every sweep job,
 * so the throughput is recorded and the conservation invariant — the
 * analytics' correctness gate — feeds the harness verdict.
 */
ProfileBenchResult
runProfileBench(const ModelCase &mc, const Options &opt)
{
    ProfileBenchResult res;
    res.name = modelName(mc.kind);
    res.batch = mc.batch;

    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    Session s(buildModel(mc.kind, mc.batch), cfg, makeCapuchinPolicy());
    auto r = s.run(opt.quick ? 4 : 8);
    if (r.oom) {
        std::cerr << res.name << "@" << mc.batch
                  << ": PROFILE BENCH RUN OOMED: " << r.oomMessage << "\n";
        return res;
    }

    const obs::Tracer &tracer = s.executor().obs().tracer;
    res.events = tracer.size();
    obs::Names names = traceNames(s.graph());
    prof::Profile p;
    std::vector<double> samples;
    for (int rep = 0; rep < opt.repeat; ++rep) {
        double t0 = nowMs();
        p = prof::buildProfile(tracer, names);
        samples.push_back(nowMs() - t0);
    }
    res.buildMs = median(samples);
    res.eventsPerSec =
        res.buildMs > 0 ? static_cast<double>(res.events) /
                              (res.buildMs / 1000.0)
                        : 0;
    res.conserved = p.conservationError() == 0;
    if (!res.conserved)
        std::cerr << res.name << "@" << mc.batch
                  << ": PROFILE BUCKETS DO NOT SUM TO WALL-CLOCK (off by "
                  << p.conservationError() << " ns)\n";
    return res;
}

const ModelKind kMaxBatchCases[] = {ModelKind::Vgg16, ModelKind::BertBase};
const ModelKind kQuickMaxBatchCases[] = {ModelKind::Vgg16};

struct MaxBatchResult
{
    std::string name;
    std::int64_t batch = 0;
    double ms = 0;
    int probes = 0;
    /** Parallel (speculative) search at `parJobs` workers vs serial. */
    unsigned parJobs = 1;
    std::int64_t parBatch = 0;
    double parMs = 0;
    double parSpeedup = 1.0;
    bool parEqual = true;
    int speculated = 0;
    int servedFromWarm = 0;
    /** Whether the parallel floor applied (enough hardware threads). */
    bool parGated = false;
};

/**
 * The zoo search the tab02/tab03 benches run, over [1, 4096] with vDNN,
 * at a 60-iteration feasibility horizon (long enough that steady-state
 * fragmentation drift would surface, and that replay-armed probes can
 * synthesize the stable tail).
 */
MaxBatchResult
runMaxBatch(ModelKind kind, unsigned par_jobs)
{
    MaxBatchResult res;
    res.name = modelName(kind);
    const int horizon = 60;
    ExecConfig cfg;
    auto builder = [kind](std::int64_t b) { return buildModel(kind, b); };
    auto policy = [] { return makeVdnnPolicy(); };

    std::atomic<int> probes{0};
    auto counting_builder = [&](std::int64_t b) {
        ++probes;
        return buildModel(kind, b);
    };
    double t0 = nowMs();
    res.batch = findMaxBatch(counting_builder, policy, cfg, horizon, 1, 4096);
    res.ms = nowMs() - t0;
    res.probes = probes;

    // Parallel speculative search: same answer required at any job
    // count; the speedup floor only applies with the hardware to back it.
    res.parJobs = par_jobs;
    res.parGated =
        std::thread::hardware_concurrency() >= par_jobs && par_jobs > 1;
    MaxBatchStats pstats;
    t0 = nowMs();
    res.parBatch = findMaxBatch(builder, policy, cfg, horizon, 1, 4096,
                                par_jobs, &pstats);
    res.parMs = nowMs() - t0;
    res.parSpeedup = res.parMs > 0 ? res.ms / res.parMs : 1.0;
    res.speculated = pstats.speculated;
    res.servedFromWarm = pstats.servedFromWarm;
    res.parEqual = res.parBatch == res.batch;
    if (!res.parEqual)
        std::cerr << res.name << ": PARALLEL MAX-BATCH SEARCH DIVERGES ("
                  << res.parBatch << " at " << par_jobs << " jobs vs "
                  << res.batch << " serial)\n";
    return res;
}

/** Dynamic-workload cases (capudrift): the full dynamic zoo, one per
 *  family; quick keeps the cheapest (varlen lstm). */
struct DriftCase
{
    WorkloadKind kind;
    const char *model; ///< "" where the family ignores it (branchy)
    std::int64_t batch;
};

const DriftCase kDriftCases[] = {
    {WorkloadKind::Varlen, "bert", 48},
    {WorkloadKind::BatchRamp, "resnet50", 256},
    {WorkloadKind::Branchy, "", 256},
};

const DriftCase kQuickDriftCases[] = {
    {WorkloadKind::Varlen, "lstm", 8},
};

struct DriftBenchResult
{
    std::string name; ///< "varlen-bert" etc.
    std::int64_t batch = 0;
    int iterations = 0;
    int classes = 0;
    int measuredIters = 0;
    double adaptiveMs = 0; ///< simulated wall of the adaptive session
    double oracleMs = 0;   ///< schedule-weighted per-class steady state
    double replanMs = 0;   ///< schedule-weighted per-class measured iter
    double overheadFrac = 0; ///< adaptive / oracle - 1
    bool ok = false;         ///< every session ran without OOM
};

/**
 * Bounded degradation: an adaptive Capuchin session over a dynamic
 * schedule vs two counterfactuals built from per-class *pinned* sessions on
 * the same union graph (same footprint, so the comparison is fair):
 *
 *  - oracle: every iteration billed at its class's steady-state duration —
 *    as if a measured plan had existed for every class from iteration 0;
 *  - replan-from-scratch: every iteration billed at its class's first
 *    (measured, passive-mode) duration — as if the plan cache did not
 *    exist and every shape change forced a full re-measurement.
 *
 * Times are *simulated* ticks, not host wall, so they are noise-free; the
 * <=15% floor on the oracle gap is asserted in tier-1
 * (DriftAdaptation.WithinFifteenPercentOfPerShapeOracle), and these
 * numbers stay out of the flat "gate" blob, which normalizes by host
 * speed and would false-trip on simulated quantities.
 */
DriftBenchResult
runDrift(const DriftCase &dc)
{
    DriftBenchResult res;
    res.name = std::string(workloadName(dc.kind)) +
               (*dc.model ? std::string("-") + dc.model : "");
    res.batch = dc.batch;

    DynamicWorkload dw = buildWorkload(dc.kind, dc.model, dc.batch, 0);
    const std::vector<std::size_t> &sched = dw.schedule;
    res.iterations = static_cast<int>(sched.size()) * 2;

    ExecConfig cfg;
    cfg.variantSchedule = sched;
    cfg.replay.enabled = true;
    cfg.obsLevel = obs::ObsLevel::Metrics;
    Session adaptive(Graph(dw.graph), cfg, makeCapuchinPolicy());
    auto ra = adaptive.run(res.iterations);
    if (ra.oom) {
        std::cerr << res.name << "@" << dc.batch
                  << ": ADAPTIVE DRIFT RUN OOMED: " << ra.oomMessage
                  << "\n";
        return res;
    }
    Tick adaptive_ticks = 0;
    for (const IterationStats &it : ra.iterations)
        adaptive_ticks += it.duration();

    const obs::MetricsRegistry &metrics = adaptive.executor().obs().metrics;
    res.classes =
        static_cast<int>(metrics.counter("capu.drift.novel_class"));
    res.measuredIters =
        static_cast<int>(metrics.counter("capu.drift.measured_iters"));

    // Per-class counterfactual rates from pinned single-class sessions.
    std::size_t n_classes = dw.graph.variants().size();
    std::vector<Tick> steady(n_classes, 0), first(n_classes, 0);
    for (std::size_t k = 0; k < n_classes; ++k) {
        ExecConfig pc;
        pc.variantSchedule = {k};
        Session pinned(Graph(dw.graph), pc, makeCapuchinPolicy());
        auto rp = pinned.run(8);
        if (rp.oom) {
            std::cerr << res.name << ": PINNED CLASS " << k
                      << " OOMED: " << rp.oomMessage << "\n";
            return res;
        }
        steady[k] = rp.steadyIterationTicks(3);
        first[k] = rp.iterations.front().duration();
    }
    Tick oracle_ticks = 0, replan_ticks = 0;
    for (int i = 0; i < res.iterations; ++i) {
        std::size_t cls = sched[static_cast<std::size_t>(i) % sched.size()];
        oracle_ticks += steady[cls];
        replan_ticks += first[cls];
    }

    res.adaptiveMs = ticksToMs(adaptive_ticks);
    res.oracleMs = ticksToMs(oracle_ticks);
    res.replanMs = ticksToMs(replan_ticks);
    res.overheadFrac =
        oracle_ticks > 0 ? static_cast<double>(adaptive_ticks) /
                                   static_cast<double>(oracle_ticks) -
                               1.0
                         : 0.0;
    res.ok = true;
    return res;
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/** Scan `text` for `"key": <number>`; returns false when absent. */
bool
findJsonNumber(const std::string &text, const std::string &key, double &out)
{
    std::string needle = "\"" + key + "\":";
    auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    while (pos < text.size() && text[pos] == ' ')
        ++pos;
    try {
        out = std::stod(text.substr(pos));
    } catch (...) {
        return false;
    }
    return true;
}

void
usage()
{
    std::cout <<
        "usage: perf_harness [options]\n"
        "  --quick           small model subset, short loops (CI smoke)\n"
        "  --repeat N        median-of-N timing samples (default 3)\n"
        "  --threads N       cap the sweep scaling ladder and parallel\n"
        "                    max-batch jobs at N (default: full 1/2/4/8\n"
        "                    ladder and 8 jobs regardless of cores;\n"
        "                    floors only gate where the hardware has\n"
        "                    enough threads)\n"
        "  --out FILE        write BENCH_perf.json here (default ./)\n"
        "  --baseline FILE   compare against a previous BENCH_perf.json;\n"
        "                    exit 1 when a calibration-normalized metric\n"
        "                    regresses by more than 2x\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick")
            opt.quick = true;
        else if (arg == "--repeat")
            opt.repeat = std::max(1, std::atoi(next()));
        else if (arg == "--threads")
            opt.threads = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--out")
            opt.out = next();
        else if (arg == "--baseline")
            opt.baseline = next();
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
            return 2;
        }
    }
    banner("Hot-path perf harness (plan / sim / allocator / sweep)",
           "capuspeed regression gate");

    double calib_ms = calibrationSpinMs();
    std::cout << "calibration spin: " << cellDouble(calib_ms, 1)
              << " ms  (thread cap="
              << (opt.threads ? std::to_string(opt.threads) : "none")
              << ", repeat=" << opt.repeat
              << (opt.quick ? ", quick" : "") << ")\n\n";

    const ModelCase *cases = opt.quick ? kQuickCases : kCases;
    std::size_t n_cases =
        opt.quick ? std::size(kQuickCases) : std::size(kCases);

    bool ok = true;
    std::vector<ModelResult> models;
    Table t({"model", "batch", "plan (ms)", "items", "sim steps/s"});
    for (std::size_t i = 0; i < n_cases; ++i) {
        ModelResult res = runModel(cases[i], opt);
        ok = ok && res.ok;
        t.addRow({res.name, cellInt(res.batch), cellDouble(res.planMs, 2),
                  cellInt(static_cast<std::int64_t>(res.planItems)),
                  cellDouble(res.simStepsPerSec, 0)});
        models.push_back(std::move(res));
    }
    t.print(std::cout);

    AllocResult alloc = runAllocator(opt.quick);
    std::cout << "\nallocator: " << cellDouble(alloc.nsPerOp, 1)
              << " ns/op over " << alloc.ops << " alloc/free ops\n";

    SweepResult sweep = runSweep(opt.threads, opt.quick);
    std::cout << "sweep scaling ladder (serial "
              << cellDouble(sweep.serialMs, 0) << " ms, "
              << sweep.hardwareThreads << " hardware threads)\n";
    ok = ok && sweep.resultsIdentical;
    for (const SweepConfig &sc : sweep.configs) {
        std::cout << "  " << sc.threads << " thread"
                  << (sc.threads == 1 ? " " : "s") << ": "
                  << cellDouble(sc.parallelMs, 0) << " ms -> "
                  << cellDouble(sc.speedup, 2) << "x"
                  << (sc.gated ? "" : "  (floor skipped: not enough cores)")
                  << "\n";
        // Hard scaling floors, hardware-conditional: >=2x at 4 workers,
        // >=3x at 8 (the capufork acceptance bar).
        double floor =
            sc.threads >= 8 ? 3.0 : (sc.threads >= 4 ? 2.0 : 0.0);
        if (sc.gated && floor > 0 && sc.speedup < floor) {
            std::cerr << "PARALLEL SWEEP SPEEDUP "
                      << cellDouble(sc.speedup, 2) << "x BELOW "
                      << cellDouble(floor, 1) << "x with " << sc.threads
                      << " workers\n";
            ok = false;
        }
    }

    // ---- steady-state replay --------------------------------------------
    const ModelCase *rcases =
        opt.quick ? kQuickReplayCases : kReplayCases;
    std::size_t n_rcases = opt.quick ? std::size(kQuickReplayCases)
                                     : std::size(kReplayCases);
    // 40-iteration quick runs leave less room to amortize the executed
    // warm-up prefix, so the quick bar is lower.
    const double min_replay_speedup = opt.quick ? 2.0 : 3.0;
    std::vector<ReplayResult> replays;
    Table rt({"model", "batch", "iters", "replay off (ms)",
              "replay on (ms)", "speedup", "executed", "synthesized",
              "identical"});
    for (std::size_t i = 0; i < n_rcases; ++i) {
        ReplayResult res = runReplay(rcases[i], opt);
        ok = ok && res.identical;
        if (res.speedup < min_replay_speedup) {
            std::cerr << res.name << "@" << res.batch
                      << ": REPLAY SPEEDUP " << cellDouble(res.speedup, 2)
                      << "x BELOW " << cellDouble(min_replay_speedup, 1)
                      << "x\n";
            ok = false;
        }
        rt.addRow({res.name, cellInt(res.batch), cellInt(res.iterations),
                   cellDouble(res.offMs, 0), cellDouble(res.onMs, 0),
                   ratioCell(res.offMs, res.onMs), cellInt(res.executed),
                   cellInt(res.replayed), res.identical ? "yes" : "NO"});
        replays.push_back(std::move(res));
    }
    std::cout << "\nsteady-state replay ("
              << (opt.quick ? 40 : 100) << "-iteration Capuchin sessions)\n";
    rt.print(std::cout);

    // ---- capuprof analytics ----------------------------------------------
    std::vector<ProfileBenchResult> profiles;
    Table pt({"model", "batch", "events", "build (ms)", "events/s",
              "conserved"});
    for (std::size_t i = 0; i < n_cases && i < 3; ++i) {
        ProfileBenchResult res = runProfileBench(cases[i], opt);
        ok = ok && res.conserved;
        pt.addRow({res.name, cellInt(res.batch),
                   cellInt(static_cast<std::int64_t>(res.events)),
                   cellDouble(res.buildMs, 2),
                   cellDouble(res.eventsPerSec, 0),
                   res.conserved ? "yes" : "NO"});
        profiles.push_back(std::move(res));
    }
    std::cout << "\ncapuprof buildProfile (bucket sweep + tensor ledger + "
                 "critical path)\n";
    pt.print(std::cout);

    // ---- max-batch search -----------------------------------------------
    const ModelKind *bcases =
        opt.quick ? kQuickMaxBatchCases : kMaxBatchCases;
    std::size_t n_bcases = opt.quick ? std::size(kQuickMaxBatchCases)
                                     : std::size(kMaxBatchCases);
    std::vector<MaxBatchResult> maxbatches;
    Table bt({"model", "max batch", "serial (ms)", "probes", "par (ms)",
              "par x", "equal"});
    const unsigned par_jobs =
        opt.threads ? std::min(8u, opt.threads) : 8u;
    for (std::size_t i = 0; i < n_bcases; ++i) {
        MaxBatchResult res = runMaxBatch(bcases[i], par_jobs);
        ok = ok && res.parEqual;
        // Parallel-search floor: >=3x at 8 jobs, hardware permitting.
        if (res.parGated && res.parJobs >= 8 && res.parSpeedup < 3.0) {
            std::cerr << res.name << ": PARALLEL MAX-BATCH SPEEDUP "
                      << cellDouble(res.parSpeedup, 2) << "x BELOW 3x at "
                      << res.parJobs << " jobs\n";
            ok = false;
        }
        bt.addRow({res.name, cellInt(res.batch), cellDouble(res.ms, 0),
                   cellInt(res.probes), cellDouble(res.parMs, 0),
                   ratioCell(res.ms, res.parMs),
                   res.parEqual ? "yes" : "NO"});
        maxbatches.push_back(std::move(res));
    }
    std::cout << "\nmax-batch search (findMaxBatch, [1, 4096], "
                 "60-iteration probes; par = speculative search at "
              << par_jobs << " jobs)\n";
    bt.print(std::cout);

    // ---- dynamic-workload adaptation (capudrift) ------------------------
    const DriftCase *dcases = opt.quick ? kQuickDriftCases : kDriftCases;
    std::size_t n_dcases = opt.quick ? std::size(kQuickDriftCases)
                                     : std::size(kDriftCases);
    std::vector<DriftBenchResult> drifts;
    Table dt({"workload", "batch", "iters", "classes", "measured",
              "adaptive (ms)", "oracle (ms)", "replan (ms)", "overhead"});
    for (std::size_t i = 0; i < n_dcases; ++i) {
        DriftBenchResult res = runDrift(dcases[i]);
        ok = ok && res.ok; // runDrift already printed the OOM
        dt.addRow({res.name, cellInt(res.batch), cellInt(res.iterations),
                   cellInt(res.classes), cellInt(res.measuredIters),
                   cellDouble(res.adaptiveMs, 1),
                   cellDouble(res.oracleMs, 1),
                   cellDouble(res.replanMs, 1),
                   cellDouble(res.overheadFrac * 100.0, 1) + "%"});
        drifts.push_back(std::move(res));
    }
    std::cout << "\ndynamic-workload adaptation (adaptive vs per-shape "
                 "oracle vs replan-from-scratch, simulated ms)\n";
    dt.print(std::cout);

    // ---- BENCH_perf.json -------------------------------------------------
    std::ostringstream js;
    js << "{\n"
       << "  \"schema\": \"capu-perf-v1\",\n"
       << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
       << "  \"repeat\": " << opt.repeat << ",\n"
       << "  \"threads\": "
       << (sweep.configs.empty() ? 1u : sweep.configs.back().threads)
       << ",\n"
       << "  \"calib_ms\": " << jsonNum(calib_ms) << ",\n"
       << "  \"models\": [\n";
    for (std::size_t i = 0; i < models.size(); ++i) {
        const ModelResult &m = models[i];
        js << "    {\"model\": \"" << m.name << "\", \"batch\": "
           << m.batch << ", \"plan_inc_ms\": " << jsonNum(m.planMs)
           << ", \"plan_items\": " << m.planItems
           << ", \"sim_wall_ms\": " << jsonNum(m.simWallMs)
           << ", \"sim_steps_per_sec\": " << jsonNum(m.simStepsPerSec)
           << "}" << (i + 1 < models.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"allocator\": {\"ns_per_op\": " << jsonNum(alloc.nsPerOp)
       << ", \"ops\": " << alloc.ops << "},\n"
       << "  \"sweep\": {\"hardware_threads\": " << sweep.hardwareThreads
       << ", \"serial_ms\": " << jsonNum(sweep.serialMs)
       << ", \"results_identical\": "
       << (sweep.resultsIdentical ? "true" : "false")
       << ", \"configs\": [";
    for (std::size_t i = 0; i < sweep.configs.size(); ++i) {
        const SweepConfig &sc = sweep.configs[i];
        js << (i ? ", " : "") << "{\"threads\": " << sc.threads
           << ", \"parallel_ms\": " << jsonNum(sc.parallelMs)
           << ", \"speedup\": " << jsonNum(sc.speedup)
           << ", \"floor_enforced\": " << (sc.gated ? "true" : "false")
           << "}";
    }
    js << "]},\n"
       << "  \"replay\": [\n";
    for (std::size_t i = 0; i < replays.size(); ++i) {
        const ReplayResult &r = replays[i];
        js << "    {\"model\": \"" << r.name << "\", \"batch\": "
           << r.batch << ", \"iterations\": " << r.iterations
           << ", \"off_ms\": " << jsonNum(r.offMs)
           << ", \"on_ms\": " << jsonNum(r.onMs)
           << ", \"speedup\": " << jsonNum(r.speedup)
           << ", \"executed\": " << r.executed
           << ", \"replayed\": " << r.replayed
           << ", \"identical\": " << (r.identical ? "true" : "false")
           << "}" << (i + 1 < replays.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"max_batch\": [\n";
    for (std::size_t i = 0; i < maxbatches.size(); ++i) {
        const MaxBatchResult &b = maxbatches[i];
        js << "    {\"model\": \"" << b.name << "\", \"max_batch\": "
           << b.batch << ", \"new_ms\": " << jsonNum(b.ms)
           << ", \"new_probes\": " << b.probes
           << ",\n     \"par_jobs\": " << b.parJobs
           << ", \"par_ms\": " << jsonNum(b.parMs)
           << ", \"par_speedup\": " << jsonNum(b.parSpeedup)
           << ", \"par_equal\": " << (b.parEqual ? "true" : "false")
           << ", \"speculated\": " << b.speculated
           << ", \"served_from_warm\": " << b.servedFromWarm
           << ", \"par_floor_enforced\": "
           << (b.parGated ? "true" : "false")
           << "}" << (i + 1 < maxbatches.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"profile\": [\n";
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const ProfileBenchResult &p = profiles[i];
        js << "    {\"model\": \"" << p.name << "\", \"batch\": "
           << p.batch << ", \"events\": " << p.events
           << ", \"build_ms\": " << jsonNum(p.buildMs)
           << ", \"events_per_sec\": " << jsonNum(p.eventsPerSec)
           << ", \"conserved\": " << (p.conserved ? "true" : "false")
           << "}" << (i + 1 < profiles.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"drift\": [\n";
    for (std::size_t i = 0; i < drifts.size(); ++i) {
        const DriftBenchResult &d = drifts[i];
        js << "    {\"workload\": \"" << d.name << "\", \"batch\": "
           << d.batch << ", \"iterations\": " << d.iterations
           << ", \"classes\": " << d.classes
           << ", \"measured_iters\": " << d.measuredIters
           << ", \"adaptive_ms\": " << jsonNum(d.adaptiveMs)
           << ", \"oracle_ms\": " << jsonNum(d.oracleMs)
           << ", \"replan_ms\": " << jsonNum(d.replanMs)
           << ", \"overhead_frac\": " << jsonNum(d.overheadFrac) << "}"
           << (i + 1 < drifts.size() ? "," : "") << "\n";
    }
    js << "  ],\n";
    // Flat gate metrics: "time-like, lower is better" keys the baseline
    // comparison scans for by name. Drift numbers are simulated ticks, not
    // host time — their floor is a tier-1 test — and stay out of this
    // calibration-normalized blob.
    js << "  \"gate\": {";
    bool first = true;
    auto gate = [&](const std::string &key, double v) {
        js << (first ? "" : ", ") << "\"" << key << "\": " << jsonNum(v);
        first = false;
    };
    for (const ModelResult &m : models) {
        gate("plan_inc_ms_" + m.name, m.planMs);
        gate("sim_wall_ms_" + m.name, m.simWallMs);
    }
    gate("alloc_ns_per_op", alloc.nsPerOp);
    for (const ReplayResult &r : replays)
        gate("replay_on_ms_" + r.name, r.onMs);
    for (const MaxBatchResult &b : maxbatches)
        gate("max_batch_ms_" + b.name, b.ms);
    js << "}\n}\n";

    std::ofstream out(opt.out);
    out << js.str();
    out.close();
    std::cout << "\nwrote " << opt.out << "\n";

    // ---- regression gate -------------------------------------------------
    if (!opt.baseline.empty()) {
        std::ifstream in(opt.baseline);
        if (!in) {
            std::cerr << "cannot read baseline " << opt.baseline << "\n";
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        std::string base = buf.str();

        double base_calib = 0;
        if (!findJsonNumber(base, "calib_ms", base_calib) ||
            base_calib <= 0) {
            std::cerr << "baseline has no calibration spin; cannot "
                         "normalize\n";
            return 1;
        }
        // Re-scan the freshly written gate keys against the baseline.
        std::string cur = js.str();
        auto gate_start = cur.find("\"gate\"");
        std::string gate_blob = cur.substr(gate_start);
        std::size_t checked = 0;
        std::size_t scan = 0;
        for (;;) {
            auto open = gate_blob.find('"', scan);
            if (open == std::string::npos)
                break;
            auto close = gate_blob.find('"', open + 1);
            if (close == std::string::npos)
                break;
            std::string key = gate_blob.substr(open + 1, close - open - 1);
            scan = close + 1;
            if (key == "gate")
                continue;
            double cur_v = 0, base_v = 0;
            if (!findJsonNumber(cur, key, cur_v))
                continue;
            if (!findJsonNumber(base, key, base_v))
                continue; // metric new in this run: no baseline to gate on
            ++checked;
            // Normalize by each run's calibration spin; sub-millisecond
            // metrics are all noise, skip them.
            if (cur_v < 1.0 || base_v < 1.0)
                continue;
            double cur_norm = cur_v / calib_ms;
            double base_norm = base_v / base_calib;
            if (cur_norm > 2.0 * base_norm) {
                std::cerr << "PERF REGRESSION: " << key << " = "
                          << cellDouble(cur_v, 2) << " ms (normalized "
                          << cellDouble(cur_norm, 3) << ") vs baseline "
                          << cellDouble(base_v, 2) << " (normalized "
                          << cellDouble(base_norm, 3) << "), > 2x\n";
                ok = false;
            }
        }
        std::cout << "baseline gate: checked " << checked
                  << " metrics against " << opt.baseline
                  << (ok ? " -- ok\n" : " -- FAILED\n");
    }

    if (!ok) {
        std::cout << "\nPERF HARNESS FAILED (see messages above)\n";
        return 1;
    }
    return 0;
}
