/**
 * @file
 * capudrift tests: dynamic-workload generators (determinism, validation,
 * schedule coverage), per-shape-class plan caching (one measured iteration
 * per class, recurring classes reuse their plan), per-class steady-state
 * replay bit-identity under class interleaving, audit-mismatch fallback on
 * a behaviour flip, zero-OOM runs of the dynamic zoo under Capuchin,
 * capulint/capuverify cleanliness on dynamic traces, and max-batch search
 * over a dynamic workload.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/happens_before.hh"
#include "analysis/lint_hooks.hh"
#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "metrics_equal.hh"
#include "models/workload.hh"
#include "models/zoo.hh"
#include "obs/obs.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"
#include "support/logging.hh"

using namespace capu;

namespace
{

ExecConfig
driftConfig(const DynamicWorkload &dw, bool replay = true,
            obs::ObsLevel level = obs::ObsLevel::Metrics)
{
    ExecConfig cfg;
    cfg.obsLevel = level;
    cfg.replay.enabled = replay;
    cfg.variantSchedule = dw.schedule;
    return cfg;
}

std::uint64_t
counterValue(Session &s, obs::Metric metric)
{
    return s.executor().obs().metrics.counter(metric);
}

void
expectIterationsEqual(const SessionResult &a, const SessionResult &b)
{
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        const IterationStats &x = a.iterations[i];
        const IterationStats &y = b.iterations[i];
        EXPECT_EQ(x.begin, y.begin) << "iteration " << i;
        EXPECT_EQ(x.end, y.end) << "iteration " << i;
        EXPECT_EQ(x.kernelBusy, y.kernelBusy) << "iteration " << i;
        EXPECT_EQ(x.recomputeBusy, y.recomputeBusy) << "iteration " << i;
        EXPECT_EQ(x.inputStall, y.inputStall) << "iteration " << i;
        EXPECT_EQ(x.allocStall, y.allocStall) << "iteration " << i;
        EXPECT_EQ(x.swapOutBytes, y.swapOutBytes) << "iteration " << i;
        EXPECT_EQ(x.swapInBytes, y.swapInBytes) << "iteration " << i;
        EXPECT_EQ(x.peakGpuBytes, y.peakGpuBytes) << "iteration " << i;
        EXPECT_EQ(x.oomEvictions, y.oomEvictions) << "iteration " << i;
        EXPECT_EQ(x.elidedWritebacks, y.elidedWritebacks)
            << "iteration " << i;
        // Backs up the list above with every other field.
        EXPECT_TRUE(x == y) << "iteration " << i;
    }
}

} // namespace

// --- workload generators ----------------------------------------------

TEST(DriftWorkload, ParseNamesRoundTrip)
{
    WorkloadKind kind;
    for (const char *name : {"static", "varlen", "batch-ramp", "branchy"}) {
        ASSERT_TRUE(workloadFromString(name, kind)) << name;
        EXPECT_STREQ(workloadName(kind), name);
    }
    EXPECT_FALSE(workloadFromString("nope", kind));
    EXPECT_EQ(dynamicWorkloads().size(), 3u);
}

TEST(DriftWorkload, StaticKindIsPlainGraph)
{
    DynamicWorkload dw = buildWorkload(WorkloadKind::Static, "resnet50",
                                       32, 7);
    EXPECT_FALSE(dw.graph.dynamic());
    EXPECT_TRUE(dw.schedule.empty());
}

TEST(DriftWorkload, DynamicKindsBuildValidateAndCover)
{
    struct Case
    {
        WorkloadKind kind;
        const char *model;
    };
    const Case cases[] = {
        {WorkloadKind::Varlen, "bert"},
        {WorkloadKind::Varlen, "lstm"},
        {WorkloadKind::BatchRamp, "resnet50"},
        {WorkloadKind::Branchy, "resnet50"},
    };
    for (const Case &c : cases) {
        DynamicWorkload dw = buildWorkload(c.kind, c.model, 16, 1);
        SCOPED_TRACE(std::string(workloadName(c.kind)) + "/" + c.model);
        ASSERT_TRUE(dw.graph.dynamic());
        ASSERT_GE(dw.graph.variants().size(), 3u);
        ASSERT_FALSE(dw.schedule.empty());
        // Every schedule slot addresses a real variant and every variant
        // recurs (so per-class plan caching and replay have work to do).
        std::vector<int> hits(dw.graph.variants().size(), 0);
        for (std::size_t slot : dw.schedule) {
            ASSERT_LT(slot, dw.graph.variants().size());
            ++hits[slot];
        }
        for (std::size_t v = 0; v < hits.size(); ++v)
            EXPECT_GE(hits[v], 2) << "variant " << v << " barely recurs";
    }
}

TEST(DriftWorkload, SchedulesDeterministicPerSeed)
{
    for (WorkloadKind kind : dynamicWorkloads()) {
        DynamicWorkload a = buildWorkload(kind, "lstm", 16, 3);
        DynamicWorkload b = buildWorkload(kind, "lstm", 16, 3);
        EXPECT_EQ(a.schedule, b.schedule) << workloadName(kind);
    }
    // Shuffled kinds respond to the seed (the ramp only jitters its
    // boundaries, so it may coincide across nearby seeds).
    DynamicWorkload s0 = buildWorkload(WorkloadKind::Branchy, "", 16, 0);
    DynamicWorkload s1 = buildWorkload(WorkloadKind::Branchy, "", 16, 99);
    EXPECT_NE(s0.schedule, s1.schedule);
}

// --- executor shape-class plumbing ------------------------------------

TEST(DriftExecutor, StaticGraphRejectsNonzeroVariant)
{
    Session s(buildModel(ModelKind::ResNet50, 16), ExecConfig{},
              makeCapuchinPolicy());
    ASSERT_FALSE(s.run(1).oom);
    s.executor().setActiveVariant(0); // no-op on static graphs
    EXPECT_THROW(s.executor().setActiveVariant(1), PanicError);
}

TEST(DriftExecutor, VariantScheduleDrivesShapeClass)
{
    DynamicWorkload dw = buildVarlenLstm(8, 5);
    ExecConfig cfg = driftConfig(dw, /*replay=*/false);
    Session s(std::move(dw.graph), cfg, makeCapuchinPolicy());
    SessionResult r = s.run(4);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    EXPECT_EQ(s.executor().activeVariant(),
              cfg.variantSchedule[3 % cfg.variantSchedule.size()]);
}

// --- per-shape-class plan cache ---------------------------------------

TEST(DriftPlanCache, OneMeasuredIterationPerClass)
{
    DynamicWorkload dw = buildVarlenLstm(8, 2);
    auto policy = makeCapuchinPolicy();
    auto *capu = static_cast<CapuchinPolicy *>(policy.get());
    Session s(std::move(dw.graph), driftConfig(dw, /*replay=*/false),
              std::move(policy));
    SessionResult r = s.run(16);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    // Three shape classes: each measures exactly once and then reuses its
    // cached plan; a recurring class never re-enters measured execution.
    EXPECT_EQ(capu->shapeClassCount(), 3u);
    EXPECT_EQ(capu->remeasures(), 0);
    EXPECT_EQ(counterValue(s, obs::Metric::DriftNovelClass), 3u);
    EXPECT_EQ(counterValue(s, obs::Metric::DriftMeasuredIters), 3u);
}

TEST(DriftPlanCache, StaticRunEmitsNoDriftMetrics)
{
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Metrics;
    Session s(buildModel(ModelKind::ResNet50, 64), cfg,
              makeCapuchinPolicy());
    ASSERT_FALSE(s.run(4).oom);
    EXPECT_EQ(counterValue(s, obs::Metric::DriftNovelClass), 0u);
    EXPECT_EQ(counterValue(s, obs::Metric::DriftMeasuredIters), 0u);
}

// --- per-class steady-state replay ------------------------------------

TEST(DriftReplay, PerClassBitIdentityUnderInterleaving)
{
    constexpr int kIters = 18;
    for (WorkloadKind kind : dynamicWorkloads()) {
        SCOPED_TRACE(workloadName(kind));
        DynamicWorkload dw = buildWorkload(kind, "lstm", 8, 4);
        Graph g2 = dw.graph; // copy before the move below
        Session on(std::move(dw.graph), driftConfig(dw, true),
                   makeCapuchinPolicy());
        SessionResult ron = on.run(kIters);
        ASSERT_FALSE(ron.oom) << ron.oomMessage;
        Session off(std::move(g2), driftConfig(dw, false),
                    makeCapuchinPolicy());
        SessionResult roff = off.run(kIters);
        ASSERT_FALSE(roff.oom) << roff.oomMessage;
        // Each recurring class converges to its own fixed point, so the
        // alternating stream still synthesizes — bit-identically.
        EXPECT_GT(ron.replay.replayed, 0);
        EXPECT_EQ(ron.replay.auditMismatches, 0);
        EXPECT_EQ(roff.replay.replayed, 0);
        expectIterationsEqual(ron, roff);
        expectMetricsEqual(on.executor().obs().metrics,
                           off.executor().obs().metrics);
    }
}

namespace
{

/**
 * Claims replay stability but changes behaviour from iteration `flipAt`
 * on (async-evicts the first sizable feature map): synthesized
 * iterations sail past the flip, so only an audit can expose it.
 */
class FlippingPolicy : public MemoryPolicy
{
  public:
    explicit FlippingPolicy(int flip_at) : flipAt_(flip_at) {}

    std::string name() const override { return "DriftFlipping"; }
    bool graphAgnostic() const override { return true; }

    void
    afterOp(ExecContext &ctx, OpId op, Tick op_end) override
    {
        (void)op;
        (void)op_end;
        if (ctx.iteration() < flipAt_ || evictedThisIter_)
            return;
        const Graph &g = ctx.graph();
        for (std::size_t t = 0; t < g.numTensors(); ++t) {
            auto id = static_cast<TensorId>(t);
            if (g.tensor(id).kind != TensorKind::FeatureMap)
                continue;
            if (ctx.status(id) != TensorStatus::In || ctx.isPinned(id))
                continue;
            if (ctx.tensorBytes(id) < (1ull << 20))
                continue;
            ctx.evictSwapAsync(id);
            evictedThisIter_ = true;
            return;
        }
    }

    void
    beginIteration(ExecContext &ctx) override
    {
        (void)ctx;
        evictedThisIter_ = false;
    }

  private:
    int flipAt_;
    bool evictedThisIter_ = false;
};

} // namespace

TEST(DriftReplay, AuditMismatchOnMutatedClassFallsBack)
{
    constexpr int kIters = 30;
    constexpr int kFlip = 13;
    DynamicWorkload dw = buildBranchy(64, 1);
    Graph g2 = dw.graph;
    ExecConfig cfg = driftConfig(dw, true);
    cfg.replay.auditInterval = 2;
    cfg.replay.maxAuditMismatches = 1;
    Session s(std::move(dw.graph), cfg,
              std::make_unique<FlippingPolicy>(kFlip));
    SessionResult r = s.run(kIters);
    ASSERT_FALSE(r.oom) << r.oomMessage;
    EXPECT_GT(r.replay.replayed, 0);
    EXPECT_GE(r.replay.audits, 1);
    EXPECT_EQ(r.replay.auditMismatches, 1);

    // With a budget of one mismatch the engine disarmed for every class;
    // late iterations must agree with a never-replayed run.
    Session off(std::move(g2), driftConfig(dw, false),
                std::make_unique<FlippingPolicy>(kFlip));
    SessionResult roff = off.run(kIters);
    ASSERT_FALSE(roff.oom) << roff.oomMessage;
    const IterationStats &x = r.iterations.back();
    const IterationStats &y = roff.iterations.back();
    EXPECT_EQ(x.duration(), y.duration());
    EXPECT_EQ(x.swapOutBytes, y.swapOutBytes);
    EXPECT_EQ(x.kernelBusy, y.kernelBusy);
}

// --- dynamic zoo under memory pressure --------------------------------

TEST(DriftZoo, NoOomUnderCapuchin)
{
    struct Case
    {
        WorkloadKind kind;
        const char *model;
        std::int64_t batch;
    };
    const Case cases[] = {
        {WorkloadKind::Varlen, "bert", 48},
        {WorkloadKind::BatchRamp, "resnet50", 256},
        {WorkloadKind::Branchy, "", 256},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(workloadName(c.kind)) + "/" + c.model);
        DynamicWorkload dw = buildWorkload(c.kind, c.model, c.batch, 0);
        Session s(std::move(dw.graph), driftConfig(dw),
                  makeCapuchinPolicy());
        SessionResult r = s.run(12);
        EXPECT_FALSE(r.oom) << r.oomMessage;
    }
}

TEST(DriftZoo, BaselinePoliciesRunDynamicGraphs)
{
    DynamicWorkload dw = buildVarlenLstm(8, 0);
    {
        Session s(Graph(dw.graph), driftConfig(dw),
                  std::make_unique<VdnnPolicy>(VdnnPolicy::Mode::All));
        EXPECT_FALSE(s.run(8).oom);
    }
    {
        Session s(Graph(dw.graph), driftConfig(dw),
                  std::make_unique<CheckpointingPolicy>(
                      CheckpointingPolicy::Mode::Memory));
        EXPECT_FALSE(s.run(8).oom);
    }
}

// --- capulint / capuverify on dynamic runs ----------------------------

TEST(DriftLint, PlanLintCleanOnEveryClass)
{
    // enablePlanLint panics on error-level findings (plan rules +
    // happens-before + lifetime analysis) every time a class's plan is
    // built from its measured trace — a run to completion is a clean bill
    // for every shape class.
    DynamicWorkload dw = buildWorkload(WorkloadKind::Varlen, "bert", 48, 0);
    CapuchinOptions o;
    enablePlanLint(o);
    Session s(std::move(dw.graph), driftConfig(dw), makeCapuchinPolicy(o));
    SessionResult r = s.run(8);
    EXPECT_FALSE(r.oom) << r.oomMessage;
}

TEST(DriftVerify, DynamicTracesRaceFreeAndTimestampConsistent)
{
    for (WorkloadKind kind : dynamicWorkloads()) {
        SCOPED_TRACE(workloadName(kind));
        DynamicWorkload dw = buildWorkload(kind, "lstm", 8, 0);
        Session s(std::move(dw.graph),
                  driftConfig(dw, true, obs::ObsLevel::Full),
                  makeCapuchinPolicy());
        SessionResult r = s.run(8);
        ASSERT_FALSE(r.oom) << r.oomMessage;
        auto timeline = obs::extractTimeline(s.executor().obs().tracer);
        ASSERT_FALSE(timeline.empty());
        HbAnalysis a = buildTraceEventGraph(timeline);
        LintReport races = checkHappensBefore(a, &s.graph());
        EXPECT_EQ(races.errorCount(), 0u) << races.summary();
        LintReport stamps = checkTimestamps(a, &s.graph());
        EXPECT_EQ(stamps.errorCount(), 0u) << stamps.summary();
    }
}

// --- max-batch search over a dynamic workload -------------------------

TEST(DriftAdaptation, WithinFifteenPercentOfPerShapeOracle)
{
    // Bounded degradation: an adaptive session over a dynamic schedule
    // (two passes) costs at most 15% more simulated time than the oracle
    // that bills every iteration at its class's steady state, measured by
    // pinned single-class sessions on the same union graph. Simulated
    // ticks, so the floor is exact. Recorded gaps: 0, 7.3% and 0.
    struct Case
    {
        WorkloadKind kind;
        const char *model;
        std::int64_t batch;
    };
    const Case kCases[] = {
        {WorkloadKind::Varlen, "bert", 48},
        {WorkloadKind::BatchRamp, "resnet50", 256},
        {WorkloadKind::Branchy, "", 256},
    };
    for (const Case &c : kCases) {
        SCOPED_TRACE(std::string(workloadName(c.kind)) + "/" + c.model);
        DynamicWorkload dw = buildWorkload(c.kind, c.model, c.batch, 0);
        const std::vector<std::size_t> &sched = dw.schedule;
        int iters = static_cast<int>(sched.size()) * 2;

        Session adaptive(Graph(dw.graph), driftConfig(dw),
                         makeCapuchinPolicy());
        SessionResult ra = adaptive.run(iters);
        ASSERT_FALSE(ra.oom) << ra.oomMessage;
        Tick adaptive_ticks = 0;
        for (const IterationStats &it : ra.iterations)
            adaptive_ticks += it.duration();

        std::vector<Tick> steady(dw.graph.variants().size(), 0);
        for (std::size_t k = 0; k < steady.size(); ++k) {
            ExecConfig pc;
            pc.variantSchedule = {k};
            Session pinned(Graph(dw.graph), pc, makeCapuchinPolicy());
            SessionResult rp = pinned.run(8);
            ASSERT_FALSE(rp.oom) << "class " << k << ": " << rp.oomMessage;
            steady[k] = rp.steadyIterationTicks(3);
        }
        Tick oracle_ticks = 0;
        for (int i = 0; i < iters; ++i)
            oracle_ticks += steady[sched[static_cast<std::size_t>(i) %
                                         sched.size()]];

        ASSERT_GT(oracle_ticks, 0u);
        double gap = static_cast<double>(adaptive_ticks) /
                         static_cast<double>(oracle_ticks) -
                     1.0;
        EXPECT_LE(gap, 0.15);
    }
}

TEST(DriftMaxBatch, WitnessHoldsUnderTrueSchedule)
{
    DynamicWorkload probe = buildVarlenLstm(1, 0);
    ExecConfig cfg;
    cfg.variantSchedule = probe.schedule;
    auto builder = [](std::int64_t b) {
        return buildVarlenLstm(b, 0).graph;
    };
    std::int64_t mb = findMaxBatch(
        builder, [] { return makeCapuchinPolicy(); }, cfg,
        /*iterations=*/4, /*lo=*/1, /*hi=*/512);
    ASSERT_GT(mb, 0);
    // The reported batch must actually survive the interleaved schedule
    // (one full cycle), not just its worst-case class.
    Session s(builder(mb), cfg, makeCapuchinPolicy());
    int horizon = static_cast<int>(probe.schedule.size()) + 2;
    EXPECT_FALSE(s.run(horizon).oom);
}
