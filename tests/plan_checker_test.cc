/**
 * @file
 * Plan verifier (capulint) tests: every rule must reject its seeded-bad
 * plan with exactly one finding per violation, a well-formed plan must
 * pass, and — the cross-cutting guarantee — every model in the zoo must
 * produce a lint-clean plan under Capuchin and the baselines at an
 * oversubscribed batch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lint_hooks.hh"
#include "analysis/plan_checker.hh"
#include "core/capuchin_policy.hh"
#include "core/policy_maker.hh"
#include "core/trace_io.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"
#include "support/logging.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

/**
 * Lineage images -> t1 -> t2 -> t3 plus a synthetic trace; tests seed
 * plans by hand and run the checker against it.
 */
struct CheckerFixture
{
    Graph g{"checker"};
    TensorId images, t1, t2, t3;
    AccessTracker tracker;
    std::uint64_t bytes = 64_MiB;

    CheckerFixture()
    {
        images = g.addTensor("images", bytes, TensorKind::FeatureMap);
        Operation src;
        src.name = "source";
        src.category = OpCategory::Source;
        src.outputs = {images};
        src.recomputable = false;
        g.addOp(src);
        t1 = addLayer("op1", {images});
        t2 = addLayer("op2", {t1});
        t3 = addLayer("op3", {t2});
    }

    TensorId
    addLayer(const std::string &name, std::vector<TensorId> ins)
    {
        TensorId out =
            g.addTensor(name + ":out", bytes, TensorKind::FeatureMap);
        Operation op;
        op.name = name;
        op.category = OpCategory::Elementwise;
        op.inputs = std::move(ins);
        op.outputs = {out};
        op.recomputable = true;
        g.addOp(op);
        return out;
    }

    void
    access(TensorId tensor, int index, Tick time)
    {
        AccessRecord r;
        r.tensor = tensor;
        r.accessIndex = index;
        r.time = time;
        r.isOutput = index == 1;
        r.op = g.tensor(tensor).producer;
        tracker.record(r);
    }

    /** Produce + forward read + one backward read each, reverse order. */
    void
    standardTrace()
    {
        access(images, 1, 0);
        access(images, 2, 50);
        access(t1, 1, 100);
        access(t1, 2, 200);
        access(t2, 1, 300);
        access(t2, 2, 400);
        access(t3, 1, 500);
        access(t3, 2, 600);
        access(t3, 3, 10000);
        access(t2, 3, 11000);
        access(t1, 3, 12000);
    }

    PlannedEviction
    swapItem(TensorId t, int evict_idx, int back_idx, Tick evict_time,
             Tick back_time, Tick swap_time)
    {
        PlannedEviction item;
        item.tensor = t;
        item.mode = RegenChoice::Swap;
        item.bytes = bytes;
        item.evictAfterAccess = evict_idx;
        item.backAccess = back_idx;
        item.evictTime = evict_time;
        item.backTime = back_time;
        item.swapTime = swap_time;
        return item;
    }

    PlannedEviction
    recomputeItem(TensorId t, int evict_idx, int back_idx, Tick evict_time,
                  Tick back_time)
    {
        PlannedEviction item;
        item.tensor = t;
        item.mode = RegenChoice::Recompute;
        item.bytes = bytes;
        item.evictAfterAccess = evict_idx;
        item.backAccess = back_idx;
        item.evictTime = evict_time;
        item.backTime = back_time;
        item.recomputeTime = 10;
        return item;
    }

    LintReport
    check(const Plan &plan, Tick swap_time = 100,
          PlanCheckerOptions opts = {})
    {
        PlanChecker checker(g, tracker, opts);
        return checker.check(
            plan, [&](TensorId) { return bytes; },
            [=](std::uint64_t) { return swap_time; });
    }
};

/**
 * Two lineage-free tensors: a accessed at 10/20/30/40, b at 15/30. Swaps
 * take 2 ticks, so evicting a across (#1, #4) frees its chunk at 12 and
 * re-acquires it at 38.
 */
struct LifetimeFixture
{
    Graph graph{"lifetime-test"};
    AccessTracker tracker;
    TensorId a = kInvalidTensor;
    TensorId b = kInvalidTensor;

    LifetimeFixture()
    {
        a = graph.addTensor("a", 1_MiB, TensorKind::FeatureMap);
        b = graph.addTensor("b", 1_MiB, TensorKind::FeatureMap);
        record(a, 1, 10, true);
        record(a, 2, 20, false);
        record(a, 3, 30, false);
        record(a, 4, 40, false);
        record(b, 1, 15, true);
        record(b, 2, 30, false);
    }

    void record(TensorId t, int idx, Tick time, bool out)
    {
        AccessRecord r;
        r.tensor = t;
        r.accessIndex = idx;
        r.time = time;
        r.isOutput = out;
        tracker.record(r);
    }

    static PlannedEviction
    swapItem(TensorId t, int evictAfter, int back)
    {
        PlannedEviction item;
        item.tensor = t;
        item.mode = RegenChoice::Swap;
        item.evictAfterAccess = evictAfter;
        item.backAccess = back;
        return item;
    }

    LintReport check(const Plan &plan)
    {
        return PlanChecker(graph, tracker)
            .check(
                plan, [this](TensorId id) { return graph.tensor(id).bytes; },
                [](std::uint64_t) { return Tick(2); });
    }
};

std::size_t
countRule(const LintReport &report, const std::string &rule)
{
    return static_cast<std::size_t>(std::count_if(
        report.diags.begin(), report.diags.end(),
        [&](const LintDiagnostic &d) { return d.rule == rule; }));
}

bool
hasRule(const LintReport &report, const std::string &rule,
        LintSeverity sev)
{
    for (const auto &d : report.diags) {
        if (d.rule == rule && d.severity == sev)
            return true;
    }
    return false;
}

// --- seeded violations ---
// One function per seeded-bad plan, so each rule's test and the
// one-finding-per-invariant test read the same input.

/** Evict t2 after production (#1) but regenerate only at the backward
 *  read (#3): the forward read #2 falls inside the hole. */
LintReport
seedHoleAccess()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.swapItem(f.t2, 1, 3, 300, 11000, 100));
    return f.check(plan);
}

/** Accesses #2 and #3 of a both fall inside the window (#1, #4). */
LintReport
seedTwoHoleAccesses()
{
    LifetimeFixture f;
    Plan plan;
    plan.items.push_back(LifetimeFixture::swapItem(f.a, 1, 4));
    return f.check(plan);
}

LintReport
seedDuplicateItem()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 2, 3, 200, 12000, 100));
    plan.items.push_back(f.swapItem(f.t1, 2, 3, 200, 12000, 100));
    return f.check(plan);
}

/** t1 has no access #9. */
LintReport
seedMissingBackAccess()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 2, 9, 200, 12000, 100));
    return f.check(plan);
}

/** a has no access #9. */
LintReport
seedMissingAccessPastEnd()
{
    LifetimeFixture f;
    Plan plan;
    plan.items.push_back(LifetimeFixture::swapItem(f.a, 3, 9));
    return f.check(plan);
}

/** Back-access #2 precedes evicted-access #3. */
LintReport
seedInvertedInterval()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 3, 2, 12000, 200, 100));
    return f.check(plan);
}

/** Back-access equals the evicted-access. */
LintReport
seedEmptyInterval()
{
    LifetimeFixture f;
    Plan plan;
    plan.items.push_back(LifetimeFixture::swapItem(f.a, 3, 3));
    return f.check(plan);
}

LintReport
seedTimeInversion()
{
    CheckerFixture f;
    f.standardTrace();
    // Seed an extra access whose corrected timestamp runs backwards:
    // index #4 follows #3 but is stamped 1000 ticks earlier.
    f.access(f.t3, 4, 9000);
    Plan plan;
    auto item = f.swapItem(f.t3, 3, 4, 10000, 9000, 100);
    // The inverted pair makes FT meaningless (and negative); budget the
    // exposure so only the inversion itself is under test.
    item.estimatedOverhead = 5000;
    plan.items.push_back(item);
    return f.check(plan);
}

/** Interval t2 #2 -> #3 is 10600 ticks; a 6000-tick swap cannot fit the
 *  12000-tick round trip. estimatedOverhead = 0 claims the swap is
 *  hidden: the feedback loop can never make that true. */
LintReport
seedClaimedHiddenNegativeFt()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    auto item = f.swapItem(f.t2, 2, 3, 400, 11000, 6000);
    item.estimatedOverhead = 0;
    item.triggerTensor = f.t3;
    item.triggerAccess = 3;
    plan.items.push_back(item);
    return f.check(plan, 6000);
}

/** Same exposed swap, but the plan honestly budgets the exposure
 *  (2 * 6000 - 10600 = 1400 ticks). */
LintReport
seedBudgetedExposure()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    auto item = f.swapItem(f.t2, 2, 3, 400, 11000, 6000);
    item.estimatedOverhead = 1400;
    item.triggerTensor = f.t3;
    item.triggerAccess = 3;
    plan.items.push_back(item);
    return f.check(plan, 6000);
}

LintReport
seedDanglingTrigger()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    auto item = f.swapItem(f.t1, 2, 3, 200, 12000, 100);
    item.triggerTensor = f.t3;
    item.triggerAccess = 9; // no such access in the trace
    plan.items.push_back(item);
    return f.check(plan);
}

LintReport
seedLateAndDeadTriggers()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    // images#2 at t=50 fires before t1's eviction at 200: a no-op.
    auto dead = f.swapItem(f.t1, 2, 3, 200, 12000, 100);
    dead.triggerTensor = f.images;
    dead.triggerAccess = 2;
    plan.items.push_back(dead);
    // t1#3 at 12000 fires after t2's back-access at 11000: too late.
    auto late = f.swapItem(f.t2, 2, 3, 400, 11000, 100);
    late.triggerTensor = f.t1;
    late.triggerAccess = 3;
    plan.items.push_back(late);
    return f.check(plan);
}

/** t1 and images die before t2's backward read: replaying t2 chains to
 *  op1(images), and images' producer is a non-recomputable source. */
LintReport
seedDeadRecomputeSource()
{
    CheckerFixture f;
    f.access(f.images, 1, 0);
    f.access(f.images, 2, 50);
    f.access(f.t1, 1, 100);
    f.access(f.t1, 2, 200);
    f.access(f.t2, 1, 300);
    f.access(f.t2, 2, 400);
    f.access(f.t2, 3, 10000);

    Plan plan;
    plan.items.push_back(f.recomputeItem(f.t2, 2, 3, 400, 10000));
    return f.check(plan);
}

/** r's only source s is dead at replay time (last access 2 < 50), has no
 *  host copy, and its producer cannot be replayed. */
LintReport
seedLostRecomputeSource()
{
    Graph g("lineage");
    TensorId s = g.addTensor("s", 1_MiB, TensorKind::FeatureMap);
    TensorId r = g.addTensor("r", 1_MiB, TensorKind::FeatureMap);
    Operation src;
    src.name = "source";
    src.category = OpCategory::Source;
    src.recomputable = false;
    src.outputs = {s};
    g.addOp(src);
    Operation op;
    op.name = "op";
    op.inputs = {s};
    op.outputs = {r};
    g.addOp(op);

    AccessTracker tracker;
    auto record = [&](TensorId t, int idx, Tick time, bool out) {
        AccessRecord a;
        a.tensor = t;
        a.accessIndex = idx;
        a.time = time;
        a.isOutput = out;
        tracker.record(a);
    };
    record(s, 1, 1, true);
    record(s, 2, 2, false);
    record(r, 1, 3, true);
    record(r, 2, 50, false);

    Plan plan;
    PlannedEviction item;
    item.tensor = r;
    item.mode = RegenChoice::Recompute;
    item.evictAfterAccess = 1;
    item.backAccess = 2;
    plan.items.push_back(item);

    return PlanChecker(g, tracker)
        .check(
            plan, [&](TensorId id) { return g.tensor(id).bytes; },
            [](std::uint64_t) { return Tick(2); });
}

/** Malformed lineage: an a <-> b producer cycle feeding c; both dead at
 *  replay time, so the lineage walk must chain through the loop. */
LintReport
seedLineageCycle()
{
    CheckerFixture f;
    TensorId a = f.g.addTensor("a", f.bytes, TensorKind::FeatureMap);
    TensorId b = f.g.addTensor("b", f.bytes, TensorKind::FeatureMap);
    Operation opa;
    opa.name = "opa";
    opa.category = OpCategory::Elementwise;
    opa.inputs = {b};
    opa.outputs = {a};
    opa.recomputable = true;
    f.g.addOp(opa);
    Operation opb;
    opb.name = "opb";
    opb.category = OpCategory::Elementwise;
    opb.inputs = {a};
    opb.outputs = {b};
    opb.recomputable = true;
    f.g.addOp(opb);
    TensorId c = f.addLayer("opc", {a});

    f.access(a, 1, 0);
    f.access(a, 2, 10);
    f.access(b, 1, 20);
    f.access(b, 2, 30);
    f.access(c, 1, 100);
    f.access(c, 2, 200);
    f.access(c, 3, 10000);

    Plan plan;
    plan.items.push_back(f.recomputeItem(c, 2, 3, 200, 10000));
    return f.check(plan);
}

LintReport
seedDeepChain()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.recomputeItem(f.t3, 2, 3, 600, 10000));

    PlanCheckerOptions opts;
    opts.maxRecomputeChain = 0; // any replay blows the budget
    return f.check(plan, 100, opts);
}

/** t1, t2, t3 overlap over [500, 10000] for a 3-tensor peak; capacity
 *  fits two. Evicting t3 over (600, 10000) frees nothing at the residual
 *  peak [500, 700) — the claimed savings are never delivered, and no
 *  amount of re-planning around this plan's numbers fixes that. */
LintReport
seedUndeliveredOvercommit()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.swapItem(f.t3, 2, 3, 600, 10000, 100));
    plan.plannedBytes = plan.targetBytes = f.bytes;

    PlanCheckerOptions opts;
    opts.gpuCapacity = 2 * f.bytes;
    return f.check(plan, 100, opts);
}

/** Capacity squeezed to one tensor: the replayed curve still overshoots,
 *  but the eviction window spans the peak and delivers the full claimed
 *  savings — the residual overshoot is passive mode's (and the
 *  refinement loop's) problem, not a plan lie. */
LintReport
seedDeliveredOvercommit()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 2, 3, 200, 12000, 100));
    plan.plannedBytes = plan.targetBytes = f.bytes;

    PlanCheckerOptions opts;
    opts.gpuCapacity = f.bytes;
    return f.check(plan, 100, opts);
}

LintReport
seedHostOvercommit()
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    auto item = f.swapItem(f.t1, 2, 3, 200, 12000, 100);
    item.triggerTensor = f.t3;
    item.triggerAccess = 3;
    plan.items.push_back(item);
    plan.plannedBytes = plan.targetBytes = f.bytes;

    PlanCheckerOptions opts;
    opts.hostCapacity = f.bytes / 2; // staging cannot hold the swap
    return f.check(plan, 100, opts);
}

} // namespace

// --- structural rules ---

TEST(PlanChecker, CleanSwapPlanPasses)
{
    CheckerFixture f;
    f.standardTrace();
    Plan plan;
    // Evict t1 after its forward read, back at the backward read; the
    // 11800-tick interval hides a 100-tick swap; in-trigger at t3's
    // backward read (10000), between eviction and back-access.
    auto item = f.swapItem(f.t1, 2, 3, 200, 12000, 100);
    item.triggerTensor = f.t3;
    item.triggerAccess = 3;
    plan.items.push_back(item);
    plan.plannedBytes = plan.targetBytes = f.bytes;

    LintReport report = f.check(plan);
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_EQ(report.diags.size(), 0u);
}

TEST(PlanChecker, UseAfterEvictRejected)
{
    LintReport report = seedHoleAccess();
    EXPECT_TRUE(
        hasRule(report, "lifetime-use-after-free", LintSeverity::Error));
    EXPECT_FALSE(report.clean());
}

TEST(PlanChecker, FindingsFollowPlanOrder)
{
    CheckerFixture f;
    f.standardTrace();
    // Both items evict at production (#1) and return at the backward
    // read (#3), so each forward read #2 is a hole. Plan order (t2, t1)
    // differs from tensor-id order, so a checker that walks a
    // tensor-keyed container instead of the plan would list t1 first.
    Plan plan;
    plan.items.push_back(f.swapItem(f.t2, 1, 3, 300, 11000, 100));
    plan.items.push_back(f.swapItem(f.t1, 1, 3, 100, 12000, 100));

    std::vector<TensorId> holes;
    for (const LintDiagnostic &d : f.check(plan).diags) {
        if (d.rule == "lifetime-use-after-free")
            holes.push_back(d.tensor);
    }
    EXPECT_EQ(holes, (std::vector<TensorId>{f.t2, f.t1}));
}

TEST(PlanChecker, DuplicateItemRejected)
{
    EXPECT_TRUE(hasRule(seedDuplicateItem(), "duplicate-item",
                        LintSeverity::Error));
}

TEST(PlanChecker, MissingAccessRejected)
{
    EXPECT_TRUE(hasRule(seedMissingBackAccess(), "missing-access",
                        LintSeverity::Error));
}

TEST(PlanChecker, BadIntervalRejected)
{
    EXPECT_TRUE(hasRule(seedInvertedInterval(), "lifetime-empty-interval",
                        LintSeverity::Error));
}

TEST(PlanChecker, TimeInversionIsAdvisory)
{
    LintReport report = seedTimeInversion();
    EXPECT_TRUE(hasRule(report, "time-inversion", LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

// --- prefetch rules ---

TEST(PlanChecker, NegativeFtClaimedHiddenRejected)
{
    EXPECT_TRUE(hasRule(seedClaimedHiddenNegativeFt(),
                        "negative-ft-prefetch", LintSeverity::Error));
}

TEST(PlanChecker, BudgetedExposureIsAdvisory)
{
    LintReport report = seedBudgetedExposure();
    EXPECT_TRUE(hasRule(report, "exposed-swap", LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

TEST(PlanChecker, DanglingTriggerRejected)
{
    EXPECT_TRUE(hasRule(seedDanglingTrigger(), "prefetch-missing-trigger",
                        LintSeverity::Error));
}

TEST(PlanChecker, LateAndDeadTriggersAreAdvisory)
{
    LintReport report = seedLateAndDeadTriggers();
    EXPECT_TRUE(
        hasRule(report, "prefetch-dead-trigger", LintSeverity::Warning));
    EXPECT_TRUE(
        hasRule(report, "prefetch-late-trigger", LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

// --- recompute rules ---

TEST(PlanChecker, EvictedRecomputeSourceRejected)
{
    EXPECT_TRUE(hasRule(seedDeadRecomputeSource(), "lifetime-source-window",
                        LintSeverity::Error));
}

TEST(PlanChecker, ResidentSourceAccepted)
{
    CheckerFixture f;
    f.standardTrace(); // t1 alive until 12000 > replay at 11000
    Plan plan;
    plan.items.push_back(f.recomputeItem(f.t2, 2, 3, 400, 11000));

    LintReport report = f.check(plan);
    EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(PlanChecker, SwapBackedSourceAccepted)
{
    CheckerFixture f;
    // t1's last live stretch ends at 500, before t2's replay at 11000 —
    // but a swap item covers t1 across that time, so the host copy
    // satisfies the replay via an on-demand swap-in.
    f.access(f.images, 1, 0);
    f.access(f.t1, 1, 100);
    f.access(f.t1, 2, 500);
    f.access(f.t1, 3, 12000);
    f.access(f.t2, 1, 300);
    f.access(f.t2, 2, 400);
    f.access(f.t2, 3, 11000);

    Plan plan;
    plan.items.push_back(f.swapItem(f.t1, 2, 3, 500, 12000, 100));
    plan.items.push_back(f.recomputeItem(f.t2, 2, 3, 400, 11000));

    LintReport report = f.check(plan);
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

TEST(PlanChecker, RecomputeCycleRejected)
{
    EXPECT_TRUE(hasRule(seedLineageCycle(), "lifetime-lineage-cycle",
                        LintSeverity::Error));
}

TEST(PlanChecker, DeepChainIsAdvisory)
{
    LintReport report = seedDeepChain();
    EXPECT_TRUE(hasRule(report, "recompute-chain-too-long",
                        LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

// --- memory window rules ---

TEST(PlanChecker, UndeliveredOvercommitRejected)
{
    EXPECT_TRUE(hasRule(seedUndeliveredOvercommit(), "memory-overcommit",
                        LintSeverity::Error));
}

TEST(PlanChecker, DeliveredOvercommitIsAdvisory)
{
    LintReport report = seedDeliveredOvercommit();
    EXPECT_TRUE(
        hasRule(report, "memory-overcommit", LintSeverity::Warning));
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

TEST(PlanChecker, HostOvercommitRejected)
{
    EXPECT_TRUE(hasRule(seedHostOvercommit(), "host-overcommit",
                        LintSeverity::Error));
}

TEST(PlanChecker, StaticPeakBound)
{
    LifetimeFixture f;
    // No plan: both tensors fully resident; the static bound is the
    // overlap of a (10..40) and b (15..30), first reached at b's birth.
    LintReport bare = f.check(Plan{});
    EXPECT_EQ(bare.peakBound, 2_MiB);
    EXPECT_EQ(bare.peakAt, Tick(15));

    // Evicting a across (1, 4) removes the overlap: a is off the device
    // from freedAt (10+2) to backAllocAt (40-2), covering b entirely.
    // Probes alive only at the window's edges (12 and 37) overlap
    // nothing either. a's hole accesses make the plan invalid, but the
    // placement is unaffected; the diagnostics are ignored here.
    TensorId lo = f.graph.addTensor("lo", 1_MiB, TensorKind::FeatureMap);
    TensorId hi = f.graph.addTensor("hi", 1_MiB, TensorKind::FeatureMap);
    f.record(lo, 1, 12, true);
    f.record(hi, 1, 37, true);
    Plan plan;
    plan.items.push_back(LifetimeFixture::swapItem(f.a, 1, 4));
    LintReport report = f.check(plan);
    EXPECT_EQ(report.peakBound, 1_MiB);
    EXPECT_EQ(report.peakAt, Tick(10));
}

// --- lifetime rules over the two-tensor interval fixture ---

TEST(Lifetime, AccessInsideEvictedIntervalIsUseAfterFree)
{
    LintReport report = seedTwoHoleAccesses();
    EXPECT_TRUE(
        hasRule(report, "lifetime-use-after-free", LintSeverity::Error))
        << report.summary();
    EXPECT_EQ(report.errorCount(), 2u);
}

TEST(Lifetime, EmptyOrInvertedIntervalFlagged)
{
    EXPECT_TRUE(hasRule(seedEmptyInterval(), "lifetime-empty-interval",
                        LintSeverity::Error));
}

TEST(Lifetime, MissingAccessFlagged)
{
    EXPECT_TRUE(hasRule(seedMissingAccessPastEnd(), "missing-access",
                        LintSeverity::Error));
}

TEST(Lifetime, LostRecomputeSourceFlagged)
{
    LintReport report = seedLostRecomputeSource();
    EXPECT_TRUE(
        hasRule(report, "lifetime-source-window", LintSeverity::Error))
        << report.summary();
}

// --- one rule per invariant ---

TEST(PlanChecker, OneFindingPerSeededInvariant)
{
    // Each seeded violation is reported once, under its one rule name,
    // and no finding carries a retired name (DESIGN.md §7).
    struct Seeded
    {
        LintReport (*seed)();
        const char *rule;
        LintSeverity severity;
        std::size_t findings;
    };
    const LintSeverity E = LintSeverity::Error;
    const LintSeverity W = LintSeverity::Warning;
    const Seeded seeded[] = {
        {seedHoleAccess, "lifetime-use-after-free", E, 1},
        {seedTwoHoleAccesses, "lifetime-use-after-free", E, 2},
        {seedDuplicateItem, "duplicate-item", E, 1},
        {seedMissingBackAccess, "missing-access", E, 1},
        {seedMissingAccessPastEnd, "missing-access", E, 1},
        {seedInvertedInterval, "lifetime-empty-interval", E, 1},
        {seedEmptyInterval, "lifetime-empty-interval", E, 1},
        {seedTimeInversion, "time-inversion", W, 1},
        {seedClaimedHiddenNegativeFt, "negative-ft-prefetch", E, 1},
        {seedBudgetedExposure, "exposed-swap", W, 1},
        {seedDanglingTrigger, "prefetch-missing-trigger", E, 1},
        {seedLateAndDeadTriggers, "prefetch-late-trigger", W, 1},
        {seedLateAndDeadTriggers, "prefetch-dead-trigger", W, 1},
        {seedDeadRecomputeSource, "lifetime-source-window", E, 1},
        {seedLostRecomputeSource, "lifetime-source-window", E, 1},
        {seedLineageCycle, "lifetime-lineage-cycle", E, 1},
        {seedDeepChain, "recompute-chain-too-long", W, 1},
        {seedUndeliveredOvercommit, "memory-overcommit", E, 1},
        {seedDeliveredOvercommit, "memory-overcommit", W, 1},
        {seedHostOvercommit, "host-overcommit", E, 1},
    };
    const char *const retired[] = {
        "use-after-evict",          "bad-interval",
        "recompute-cycle",          "recompute-source-lost",
        "lifetime-duplicate-item",  "lifetime-missing-access",
        "lifetime-chain-budget",    "lifetime-peak-overcommit",
        "lifetime-double-residency",
    };
    for (const Seeded &s : seeded) {
        LintReport report = s.seed();
        EXPECT_EQ(countRule(report, s.rule), s.findings) << s.rule;
        for (const LintDiagnostic &d : report.diags) {
            if (d.rule == s.rule) {
                EXPECT_EQ(d.severity, s.severity) << s.rule;
            }
        }
        for (const char *name : retired)
            EXPECT_EQ(countRule(report, name), 0u) << s.rule << ": " << name;
    }
}

// --- offline reconstruction ---

TEST(PlanChecker, ReconstructedGraphPlansAndLintsClean)
{
    // The capulint tool replans from a serialized trace with a graph
    // rebuilt from lineage records alone; the result must survive the
    // same rules as the live pipeline.
    ExecConfig cfg;
    auto policy = makeCapuchinPolicy();
    auto *capu = static_cast<CapuchinPolicy *>(policy.get());
    Session session(buildModel(ModelKind::Vgg16, 64), cfg,
                    std::move(policy));
    auto r = session.run(1);
    ASSERT_FALSE(r.oom) << r.oomMessage;

    TensorTrace trace = captureTrace(capu->tracker(), session.graph());
    Graph rebuilt = reconstructGraph(trace);
    ASSERT_GT(rebuilt.numTensors(), 0u);

    AccessTracker tracker = trace.toTracker();
    auto bytes_of = [&](TensorId id) { return rebuilt.tensor(id).bytes; };
    auto swap_of = [](std::uint64_t b) { return static_cast<Tick>(b / 12); };
    PolicyMaker maker(rebuilt, tracker, PolicyMakerOptions{});
    Plan plan = maker.build(512_MiB, bytes_of, swap_of, 8_GiB);
    EXPECT_FALSE(plan.items.empty());

    PlanCheckerOptions opts;
    opts.gpuCapacity = 8_GiB;
    opts.capacitySlack = 8_GiB / 20;
    PlanChecker checker(rebuilt, tracker, opts);
    LintReport report = checker.check(plan, bytes_of, swap_of);
    EXPECT_EQ(report.errorCount(), 0u) << report.summary();
}

// --- the zoo sweep: every policy's plan is lint-clean end to end ---

namespace
{

std::int64_t
oversubscribedBatch(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Vgg16: return 260;
      case ModelKind::ResNet50: return 240;
      case ModelKind::ResNet152: return 110;
      case ModelKind::InceptionV3: return 210;
      case ModelKind::InceptionV4: return 120;
      case ModelKind::DenseNet121: return 200;
      case ModelKind::BertBase: return 110;
    }
    return 0;
}

/** Panic on errors, keep warnings quiet: the sweep asserts soundness. */
LintHookOptions
strictHook()
{
    LintHookOptions hook;
    hook.panicOnError = true;
    hook.printFindings = false;
    return hook;
}

} // namespace

class LintSweepTest : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(LintSweepTest, CapuchinPlanIsLintClean)
{
    ModelKind kind = GetParam();
    CapuchinOptions opts;
    enablePlanLint(opts, strictHook());
    Session session(buildModel(kind, oversubscribedBatch(kind)),
                    ExecConfig{}, makeCapuchinPolicy(opts));
    // An error-level finding panics out of run(); OOM is reported in r.
    SessionResult r = session.run(4);
    EXPECT_FALSE(r.oom) << r.oomMessage;
}

INSTANTIATE_TEST_SUITE_P(AllModels, LintSweepTest,
                         ::testing::Values(ModelKind::Vgg16,
                                           ModelKind::ResNet50,
                                           ModelKind::ResNet152,
                                           ModelKind::InceptionV3,
                                           ModelKind::InceptionV4,
                                           ModelKind::DenseNet121,
                                           ModelKind::BertBase),
                         [](const auto &info) {
                             std::string name = modelName(info.param);
                             std::erase_if(name, [](unsigned char c) {
                                 return std::isalnum(c) == 0;
                             });
                             return name;
                         });

TEST(LintSweepBaselines, VdnnPlanIsLintClean)
{
    for (ModelKind kind : {ModelKind::Vgg16, ModelKind::ResNet50,
                           ModelKind::DenseNet121}) {
        auto policy = std::make_unique<VdnnPolicy>();
        enablePlanLint(*policy, strictHook());
        Session session(buildModel(kind, oversubscribedBatch(kind)),
                        ExecConfig{}, std::move(policy));
        SessionResult r = session.run(2);
        EXPECT_FALSE(r.oom) << modelName(kind) << ": " << r.oomMessage;
    }
}

TEST(LintSweepBaselines, CheckpointingPlanIsLintClean)
{
    for (ModelKind kind : {ModelKind::Vgg16, ModelKind::ResNet50,
                           ModelKind::DenseNet121}) {
        auto policy = std::make_unique<CheckpointingPolicy>(
            CheckpointingPolicy::Mode::Memory);
        enablePlanLint(*policy, strictHook());
        Session session(buildModel(kind, oversubscribedBatch(kind)),
                        ExecConfig{}, std::move(policy));
        SessionResult r = session.run(2);
        EXPECT_FALSE(r.oom) << modelName(kind) << ": " << r.oomMessage;
    }
}
