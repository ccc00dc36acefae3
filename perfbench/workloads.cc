#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <span>

#include "analysis/lint_hooks.hh"
#include "core/capuchin_policy.hh"
#include "core/policy_maker.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "serve/service.hh"
#include "support/rng.hh"

namespace perfbench
{

namespace
{

using namespace capu;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct ModelCase
{
    ModelKind kind;
    std::int64_t batch;
};

/** A training workload: models trained for `steps` steps each, in epochs
 *  of `epochSteps` steps (one Session::run call per epoch). */
struct TrainSpec
{
    std::span<const ModelCase> models;
    int steps;
    int epochSteps;
    bool lint;
};

// Batches past TF-original's wall, so passive mode evicts and the planner,
// swap lanes and feedback all run every iteration.
constexpr ModelCase kDeepModels[] = {
    {ModelKind::ResNet152, 110},
    {ModelKind::InceptionV3, 210},
    {ModelKind::InceptionV4, 120},
    {ModelKind::DenseNet121, 200},
};
constexpr TrainSpec kTrainDeep = {kDeepModels, 100, 25, /*lint=*/true};

// Models on which replay arms after about nine iterations; the long run
// makes synthesized iterations and audits dominate.
constexpr ModelCase kLongModels[] = {
    {ModelKind::Vgg16, 230},
    {ModelKind::ResNet50, 200},
    {ModelKind::BertBase, 64},
};
constexpr TrainSpec kTrainLong = {kLongModels, 4000, 500, /*lint=*/false};

/** A max-batch search and the paper's Table-2 Capuchin column. */
struct SearchCase
{
    ModelKind kind;
    std::int64_t paperBatch;
};
constexpr SearchCase kSearchModels[] = {
    {ModelKind::Vgg16, 350},
    {ModelKind::ResNet50, 1014},
    {ModelKind::BertBase, 450},
};
/** findMaxBatch's own defaults: 3 iterations per probe in [1, 4096]. */
constexpr int kSearchIterations = 3;

struct ServeKeySpec
{
    const char *model;
    std::int64_t batch;
};
// Twenty keys in popularity order (rank r is drawn with weight 1/(r+1)),
// interleaved across models so no single model is the hot set. Batches
// stay within Capuchin's reach, and short of the heavily oversubscribed
// DenseNet/InceptionV3 batches whose cold plans take 10-20x longer than
// any other request, so the tail is set by the cold plans of many keys
// rather than by whichever rare key a seed happens to draw.
constexpr ServeKeySpec kServeKeys[] = {
    {"resnet50", 128}, {"vgg16", 128},      {"bert", 64},
    {"inceptionv3", 128}, {"densenet", 96}, {"resnet50", 200},
    {"vgg16", 230},    {"bert", 96},        {"inceptionv3", 160},
    {"densenet", 128}, {"resnet50", 64},    {"vgg16", 64},
    {"bert", 32},      {"inceptionv3", 64}, {"densenet", 64},
    {"resnet50", 256}, {"vgg16", 192},      {"bert", 16},
    {"inceptionv3", 32}, {"densenet", 32},
};
constexpr std::size_t kServeRequests = 300;

ExecConfig
execConfig(obs::ObsLevel level)
{
    ExecConfig cfg;
    cfg.obsLevel = level;
    cfg.replay.enabled = true; // capusim's default
    return cfg;
}

Rng
seededRng(std::uint64_t seed, std::uint64_t stream)
{
    return Rng(hashCombine(hashCombine(seed, 0x70657266ull), stream));
}

/** The order a pass visits its models in, shuffled per (seed, pass). */
std::vector<std::size_t>
visitOrder(std::size_t n, std::uint64_t seed, int pass)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng = seededRng(seed, static_cast<std::uint64_t>(pass) + 1);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.uniformInt(0, i - 1)]);
    return order;
}

struct LintLog
{
    std::uint64_t calls = 0;
    std::uint64_t failedCalls = 0;
    std::uint64_t errorFindings = 0;
};

/**
 * Capuchin, optionally with the plan audit `capusim --lint` installs:
 * the same runPlanLint call, reporting instead of panicking so the
 * benchmark counts error findings as failures.
 */
std::unique_ptr<MemoryPolicy>
makePolicy(LintLog *lint, SpanRecorder &spans)
{
    CapuchinOptions o;
    if (lint != nullptr) {
        o.planAudit = [lint, &spans](const Plan &plan,
                                     const AccessTracker &tracker,
                                     ExecContext &ctx) {
            SpanRecorder::Scope span(spans, "analysis.lint");
            LintHookOptions hook;
            hook.panicOnError = false;
            hook.printFindings = false;
            LintReport report =
                runPlanLint(plan, ctx.graph(), tracker, ctx, hook, "capuchin");
            ++lint->calls;
            lint->errorFindings += report.errorCount();
            if (report.errorCount() > 0)
                ++lint->failedCalls;
        };
    }
    return makeCapuchinPolicy(std::move(o));
}

Graph
buildGraph(ModelKind kind, std::int64_t batch, SpanRecorder &spans)
{
    SpanRecorder::Scope span(spans, "models.build");
    return buildModel(kind, batch);
}

std::unique_ptr<Session>
newSession(Graph graph, const ExecConfig &cfg,
           std::unique_ptr<MemoryPolicy> policy, SpanRecorder &spans)
{
    SpanRecorder::Scope span(spans, "exec.session_new");
    return std::make_unique<Session>(std::move(graph), cfg,
                                     std::move(policy));
}

/** The program's own counters the per-layer metrics read (metrics level). */
constexpr const char *kCounters[] = {
    "plan.builds", "plan.revisions", "feedback.adjustments",
    "prefetch.miss", "prefetch.count", "bfc.splits",
    "bfc.merges",  "bfc.failed_allocs",
};

/**
 * Read what a finished session can tell: its counters, its plan size, and
 * (when tracing) the host time of a standalone PolicyMaker::build on its
 * measured tracker and target, rebuilt exactly as perf_harness does.
 */
void
readSession(Session &s, PassResult &res, SpanRecorder &spans)
{
    const obs::MetricsRegistry &m = s.executor().obs().metrics;
    for (const char *name : kCounters)
        res.layer[std::string("counter.") + name] +=
            static_cast<double>(m.counter(name));

    auto *capu = dynamic_cast<CapuchinPolicy *>(s.policy());
    if (capu == nullptr || !capu->planBuilt())
        return;
    res.layer["core.plan_items"] +=
        static_cast<double>(capu->plan().items.size());
    if (!spans.enabled())
        return;
    Executor &ex = s.executor();
    auto target = static_cast<std::uint64_t>(
        static_cast<double>(capu->measuredEvictedBytes()) *
        CapuchinOptions{}.savingMargin);
    PolicyMaker maker(s.graph(), capu->tracker());
    SpanRecorder::Scope span(spans, "core.plan_build");
    maker.build(
        target, [&](TensorId id) { return ex.tensorBytes(id); },
        [&](std::uint64_t b) { return ex.swapTime(b); }, ex.gpuCapacity());
}

/** Simulated totals over the iterations of every model of a pass. */
struct SimTotals
{
    std::uint64_t iterations = 0;
    std::uint64_t swapBytes = 0;
    Tick inputStall = 0;
    Tick allocStall = 0;
    Tick prefetchStall = 0;
    Tick recompute = 0;
    std::uint64_t oomEvictions = 0;

    void
    add(const std::vector<IterationStats> &iters)
    {
        for (const IterationStats &it : iters) {
            ++iterations;
            swapBytes += it.swapOutBytes + it.swapInBytes;
            inputStall += it.inputStall;
            allocStall += it.allocStall;
            prefetchStall += it.prefetchStall;
            recompute += it.recomputeBusy;
            oomEvictions += static_cast<std::uint64_t>(it.oomEvictions);
        }
    }

    void
    store(PassResult &res) const
    {
        res.sim["total.iterations"] = static_cast<double>(iterations);
        res.sim["total.swap_bytes"] = static_cast<double>(swapBytes);
        res.sim["total.input_stall_ms"] = ticksToMs(inputStall);
        res.sim["total.alloc_stall_ms"] = ticksToMs(allocStall);
        res.sim["total.prefetch_stall_ms"] = ticksToMs(prefetchStall);
        res.sim["total.recompute_ms"] = ticksToMs(recompute);
        res.layer["memory.oom_evictions"] = static_cast<double>(oomEvictions);
    }
};

/** Store one trained model's simulated outcome; returns its steady
 *  throughput (iterations after the first two). */
double
storeModel(PassResult &res, const std::string &tag, std::int64_t batch,
           std::vector<IterationStats> iters)
{
    Tick ticks = 0;
    for (const IterationStats &it : iters)
        ticks += it.duration();
    res.sim[tag + ".iterations"] = static_cast<double>(iters.size());
    SessionResult agg;
    agg.iterations = std::move(iters);
    const double tput = agg.steadyThroughput(batch);
    res.sim[tag + ".samples_per_s"] = tput;
    res.sim[tag + ".sim_ms"] = ticksToMs(ticks);
    return tput;
}

PassResult
trainPass(const TrainSpec &spec, const RunInputs &in, int pass,
          const PassOptions &opt, SpanRecorder &spans)
{
    using Stepping = PassOptions::Stepping;
    const std::span<const ModelCase> cases = spec.models;
    PassResult res;
    const ExecConfig cfg = execConfig(opt.obs);
    LintLog lint_log;
    const std::vector<std::size_t> order =
        visitOrder(cases.size(), in.seed, pass);

    std::vector<std::unique_ptr<Session>> sessions(cases.size());
    const auto t_setup = Clock::now();
    for (std::size_t i : order) {
        sessions[i] = newSession(
            buildGraph(cases[i].kind, cases[i].batch, spans), cfg,
            makePolicy(spec.lint ? &lint_log : nullptr, spans), spans);
    }
    res.setupS = secondsSince(t_setup);

    const int per_call = opt.stepping == Stepping::Step    ? 1
                         : opt.stepping == Stepping::Whole ? spec.steps
                                                           : spec.epochSteps;
    SimTotals totals;
    std::vector<double> tputs(cases.size()), batches(cases.size());
    double armed = 0;
    ReplaySummary all;
    double post_s = 0;
    const auto t_run = Clock::now();
    for (std::size_t i : order) {
        Session &s = *sessions[i];
        const ModelCase &mc = cases[i];
        std::vector<IterationStats> iters;
        iters.reserve(static_cast<std::size_t>(spec.steps));
        ReplaySummary replay;
        bool oom = false;
        for (int done = 0; done < spec.steps && !oom; done += per_call) {
            const int executed = replay.executed;
            const auto a = Clock::now();
            const int span = spans.open("exec.run");
            SessionResult r = s.run(per_call);
            spans.close(span);
            res.requestMs.push_back(msBetween(a, Clock::now()));
            // Single steps split into those the executor ran and those
            // replay synthesized.
            if (per_call == 1)
                spans.rename(span, r.replay.executed == executed
                                       ? "replay.synth"
                                       : "exec.iter");
            replay = r.replay;
            oom = r.oom;
            iters.insert(iters.end(), r.iterations.begin(),
                         r.iterations.end());
        }

        // Account for the model and free its session before the next one
        // runs (a full-level trace ring is large); not part of host time.
        const auto t_post = Clock::now();
        const std::string tag = modelName(mc.kind);
        res.tally.record(!oom, tag + "@" + std::to_string(mc.batch) +
                                   ": OOM during training");
        res.tally.count(static_cast<std::uint64_t>(replay.audits),
                        static_cast<std::uint64_t>(replay.auditMismatches),
                        tag + ": replay audit digest mismatch");
        totals.add(iters);
        tputs[i] = storeModel(res, tag, mc.batch, std::move(iters));
        batches[i] = static_cast<double>(mc.batch);
        armed += replay.replayed > 0 ? 1 : 0;
        all.executed += replay.executed;
        all.replayed += replay.replayed;
        all.audits += replay.audits;
        all.auditMismatches += replay.auditMismatches;
        readSession(s, res, spans);
        sessions[i].reset();
        post_s += secondsSince(t_post);
    }
    res.hostS = secondsSince(t_run) - post_s;

    res.tally.count(lint_log.calls, lint_log.failedCalls,
                    "plan lint reported error findings");
    totals.store(res);
    res.sim["samples_per_s"] = geomean(tputs);
    res.sim["max_batch"] = geomean(batches);
    res.sim["paper_err"] = 1.0; // no paper number is reproduced here
    res.layer["replay.armed_models"] = armed;
    res.layer["replay.executed"] = all.executed;
    res.layer["replay.replayed"] = all.replayed;
    res.layer["replay.audits"] = all.audits;
    res.layer["replay.audit_mismatches"] = all.auditMismatches;
    res.layer["analysis.lint_calls"] = static_cast<double>(lint_log.calls);
    res.layer["analysis.errors"] = static_cast<double>(lint_log.errorFindings);
    return res;
}

PassResult
searchPass(const RunInputs &in, int pass, const PassOptions &opt,
           SpanRecorder &spans)
{
    PassResult res;
    const ExecConfig cfg = execConfig(opt.obs);
    const std::size_t n = std::size(kSearchModels);
    const std::vector<std::size_t> order = visitOrder(n, in.seed, pass);

    std::vector<std::unique_ptr<Session>> checks(n);
    std::vector<std::int64_t> found(n, 0);
    std::vector<std::vector<IterationStats>> iters(n);
    std::vector<bool> oom(n, false);
    double probes = 0;
    const auto t_run = Clock::now();
    for (std::size_t i : order) {
        const SearchCase &sc = kSearchModels[i];
        // Each probe session starts with exactly one graph build, so the
        // builder's call times delimit the probes.
        std::vector<Clock::time_point> probe_starts;
        auto builder = [&](std::int64_t batch) {
            probe_starts.push_back(Clock::now());
            return buildGraph(sc.kind, batch, spans);
        };
        auto policy = [] { return makeCapuchinPolicy(); };
        MaxBatchStats stats;
        {
            SpanRecorder::Scope span(spans, "search.find_max_batch");
            found[i] = findMaxBatch(builder, policy, cfg, kSearchIterations,
                                    1, 4096, 1, &stats);
        }
        const auto search_end = Clock::now();
        for (std::size_t k = 0; k < probe_starts.size(); ++k)
            res.requestMs.push_back(msBetween(
                probe_starts[k], k + 1 < probe_starts.size()
                                     ? probe_starts[k + 1]
                                     : search_end));
        probes += stats.probes;
        if (found[i] <= 0)
            continue;

        // The found batch must train: run it once more from scratch.
        const auto t_setup = Clock::now();
        checks[i] = newSession(buildGraph(sc.kind, found[i], spans), cfg,
                               makeCapuchinPolicy(), spans);
        res.setupS += secondsSince(t_setup);
        SpanRecorder::Scope span(spans, "exec.run");
        SessionResult r = checks[i]->run(kSearchIterations);
        iters[i] = std::move(r.iterations);
        oom[i] = r.oom;
    }
    res.hostS = secondsSince(t_run) - res.setupS;

    SimTotals totals;
    std::vector<double> tputs, batches;
    double err_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const SearchCase &sc = kSearchModels[i];
        const std::string tag = modelName(sc.kind);
        res.tally.record(found[i] > 0, tag + ": findMaxBatch found no batch");
        res.sim[tag + ".max_batch"] = static_cast<double>(found[i]);
        batches.push_back(static_cast<double>(found[i]));
        err_sum += std::fabs(static_cast<double>(found[i] - sc.paperBatch)) /
                   static_cast<double>(sc.paperBatch);
        if (!checks[i])
            continue;
        res.tally.record(!oom[i], tag + "@" + std::to_string(found[i]) +
                                      ": found max batch OOMs");
        totals.add(iters[i]);
        tputs.push_back(storeModel(res, tag, found[i], std::move(iters[i])));
        readSession(*checks[i], res, spans);
    }
    totals.store(res);
    res.sim["samples_per_s"] = geomean(tputs);
    res.sim["max_batch"] = geomean(batches);
    res.sim["paper_err"] = err_sum / static_cast<double>(n);
    res.layer["search.probes"] = probes;
    return res;
}

/**
 * The request stream of one pass: Zipf-like draws over kServeKeys, plus
 * one request per key at a seeded position so every key is planned in
 * every stream. Each pass draws its own stream, so a run averages the
 * mix over many streams instead of repeating one.
 */
std::vector<serve::PlanRequest>
serveStream(std::uint64_t seed, int pass)
{
    const std::size_t keys = std::size(kServeKeys);
    std::vector<double> cdf(keys);
    double total = 0;
    for (std::size_t r = 0; r < keys; ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf[r] = total;
    }
    Rng rng = seededRng(seed, 0x10000ull + static_cast<std::uint64_t>(pass));
    std::vector<std::size_t> picks;
    picks.reserve(kServeRequests);
    for (std::size_t i = keys; i < kServeRequests; ++i) {
        double u = rng.uniformReal() * total;
        auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        picks.push_back(std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf.begin()), keys - 1));
    }
    for (std::size_t k = 0; k < keys; ++k) {
        auto at = static_cast<std::ptrdiff_t>(rng.uniformInt(0, picks.size()));
        picks.insert(picks.begin() + at, k);
    }
    std::vector<serve::PlanRequest> stream;
    stream.reserve(picks.size());
    for (std::size_t k : picks) {
        serve::PlanRequest q;
        q.model = kServeKeys[k].model;
        q.batch = kServeKeys[k].batch;
        q.warmIterations = 1;
        stream.push_back(std::move(q));
    }
    return stream;
}

/** Fold a 64-bit digest into a value a double holds exactly. */
double
foldDigest(std::uint64_t d)
{
    return static_cast<double>((d ^ (d >> 32)) & 0xffffffffull);
}

PassResult
servePass(const RunInputs &in, int pass, const PassOptions &opt,
          SpanRecorder &spans)
{
    namespace fs = std::filesystem;
    PassResult res;
    const fs::path dir =
        fs::path(in.workdir) / ("plans-" + std::to_string(pass));

    const auto t_setup = Clock::now();
    fs::remove_all(dir);
    fs::create_directories(dir);
    serve::PlanServiceConfig scfg;
    scfg.exec = execConfig(opt.obs);
    scfg.cacheEntries = opt.cacheEntries;
    scfg.planDir = dir.string();
    auto svc = std::make_unique<serve::PlanService>(scfg);
    res.setupS = secondsSince(t_setup);

    const std::vector<serve::PlanRequest> stream = serveStream(in.seed, pass);
    std::vector<serve::PlanResponse> resps;
    resps.reserve(stream.size());
    res.requestMs.reserve(stream.size());
    const auto t_run = Clock::now();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const auto a = Clock::now();
        const int span =
            spans.open("serve.handle", static_cast<std::int64_t>(i));
        resps.push_back(svc->handle(stream[i]));
        spans.close(span);
        res.requestMs.push_back(msBetween(a, Clock::now()));
        const serve::PlanResponse &r = resps.back();
        spans.rename(span, r.hit        ? "serve.hit"
                           : r.fromDisk ? "serve.disk"
                                        : "serve.measure");
    }
    res.hostS = secondsSince(t_run);

    // Every answer for a key must carry the digest of its key's first
    // (cold, measured) plan, whether it came from the cache or the disk.
    std::map<std::string, std::uint64_t> cold;
    std::map<std::string, double> cold_tput;
    std::map<std::string, std::int64_t> model_batch;
    double hits = 0, disk = 0, measured = 0;
    for (std::size_t i = 0; i < resps.size(); ++i) {
        const serve::PlanRequest &q = stream[i];
        const serve::PlanResponse &r = resps[i];
        const std::string key = q.model + "@" + std::to_string(q.batch);
        if (!r.ok) {
            res.tally.record(false, key + ": " + r.error);
            continue;
        }
        auto [it, first] = cold.emplace(key, r.digest);
        if (first) {
            cold_tput[key] = r.imagesPerSec;
            auto &mb = model_batch[q.model];
            mb = std::max(mb, q.batch);
        }
        res.tally.record(it->second == r.digest,
                         key + ": answer digest differs from the cold plan");
        hits += r.hit ? 1 : 0;
        disk += !r.hit && r.fromDisk ? 1 : 0;
        measured += !r.hit && !r.fromDisk ? 1 : 0;
    }
    std::vector<double> tputs, batches;
    for (const auto &[key, digest] : cold) {
        res.sim[key + ".digest"] = foldDigest(digest);
        tputs.push_back(cold_tput[key]);
    }
    for (const auto &[model, batch] : model_batch)
        batches.push_back(static_cast<double>(batch));
    // The cold plans are the same in every stream; the mix is not.
    res.sim["samples_per_s"] = geomean(tputs);
    res.sim["max_batch"] = geomean(batches);
    res.sim["paper_err"] = 1.0; // no paper number is reproduced here
    res.layer["serve.requests"] = static_cast<double>(resps.size());
    res.layer["serve.hits"] = hits;
    res.layer["serve.disk"] = disk;
    res.layer["serve.measured"] = measured;
    res.layer["serve.evictions"] =
        static_cast<double>(svc->cacheStats().evictions);

    svc.reset();
    fs::remove_all(dir);
    return res;
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::TrainDeep: return "train-deep";
      case Workload::TrainLong: return "train-long";
      case Workload::MaxBatch: return "maxbatch";
      case Workload::ServeChurn: return "serve-churn";
    }
    return "?";
}

std::optional<Workload>
workloadFromName(std::string_view name)
{
    for (Workload w : {Workload::TrainDeep, Workload::TrainLong,
                       Workload::MaxBatch, Workload::ServeChurn}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

PassResult
runPass(const RunInputs &in, int pass, const PassOptions &opt,
        SpanRecorder &spans)
{
    switch (in.workload) {
      case Workload::TrainDeep:
        return trainPass(kTrainDeep, in, pass, opt, spans);
      case Workload::TrainLong:
        return trainPass(kTrainLong, in, pass, opt, spans);
      case Workload::MaxBatch:
        return searchPass(in, pass, opt, spans);
      case Workload::ServeChurn:
        return servePass(in, pass, opt, spans);
    }
    return {};
}

} // namespace perfbench
