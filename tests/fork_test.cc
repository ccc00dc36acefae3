/**
 * @file
 * capufork tests: fork determinism (a session forked mid-run continues
 * bit-identically to the original — iteration stats, metrics, weight
 * fingerprints, capuscope traces), run() splitting, shared-graph /
 * no-re-measure structural guarantees, concurrent forking from one
 * SimState, speculate() determinism across thread counts, parallel
 * findMaxBatch equality with the serial search, and value-semantics
 * regression tests for EventQueue and BfcAllocator copies.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "memory/bfc_allocator.hh"
#include "models/workload.hh"
#include "models/zoo.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"
#include "sim/event_queue.hh"
#include "support/thread_pool.hh"

using namespace capu;

namespace
{

struct ZooCase
{
    const char *name;
    ModelKind kind;
    std::int64_t batch;
};

const ZooCase kZoo[] = {
    {"vgg16", ModelKind::Vgg16, 230},
    {"resnet50", ModelKind::ResNet50, 200},
    {"bert", ModelKind::BertBase, 64},
};

struct PolicyCase
{
    const char *name;
    std::unique_ptr<MemoryPolicy> (*make)();
};

std::unique_ptr<MemoryPolicy>
makeCapuchin()
{
    return makeCapuchinPolicy();
}

std::unique_ptr<MemoryPolicy>
makeVdnn()
{
    return makeVdnnPolicy();
}

std::unique_ptr<MemoryPolicy>
makeCheckpointing()
{
    return makeCheckpointingPolicy(CheckpointingPolicy::Mode::Speed);
}

const PolicyCase kPolicies[] = {
    {"capuchin", makeCapuchin},
    {"vdnn", makeVdnn},
    {"checkpointing", makeCheckpointing},
};

ExecConfig
forkConfig(obs::ObsLevel level = obs::ObsLevel::Metrics,
           bool replay = true)
{
    ExecConfig cfg;
    cfg.obsLevel = level;
    cfg.replay.enabled = replay;
    return cfg;
}

void
expectIterationsEqual(const SessionResult &a, const SessionResult &b)
{
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        const IterationStats &x = a.iterations[i];
        const IterationStats &y = b.iterations[i];
        EXPECT_EQ(x.iteration, y.iteration) << "iteration " << i;
        EXPECT_EQ(x.begin, y.begin) << "iteration " << i;
        EXPECT_EQ(x.end, y.end) << "iteration " << i;
        EXPECT_EQ(x.kernelBusy, y.kernelBusy) << "iteration " << i;
        EXPECT_EQ(x.recomputeBusy, y.recomputeBusy) << "iteration " << i;
        EXPECT_EQ(x.inputStall, y.inputStall) << "iteration " << i;
        EXPECT_EQ(x.allocStall, y.allocStall) << "iteration " << i;
        EXPECT_EQ(x.swapOutBytes, y.swapOutBytes) << "iteration " << i;
        EXPECT_EQ(x.swapInBytes, y.swapInBytes) << "iteration " << i;
        EXPECT_EQ(x.swapOutCount, y.swapOutCount) << "iteration " << i;
        EXPECT_EQ(x.swapInCount, y.swapInCount) << "iteration " << i;
        EXPECT_EQ(x.recomputedTensors, y.recomputedTensors)
            << "iteration " << i;
        EXPECT_EQ(x.recomputeOps, y.recomputeOps) << "iteration " << i;
        EXPECT_EQ(x.droppedTensors, y.droppedTensors) << "iteration " << i;
        EXPECT_EQ(x.droppedBytes, y.droppedBytes) << "iteration " << i;
        EXPECT_EQ(x.inplaceForwards, y.inplaceForwards) << "iteration " << i;
        EXPECT_EQ(x.fallbackKernels, y.fallbackKernels) << "iteration " << i;
        EXPECT_EQ(x.oomEvictions, y.oomEvictions) << "iteration " << i;
        EXPECT_EQ(x.elidedWritebacks, y.elidedWritebacks)
            << "iteration " << i;
        EXPECT_EQ(x.prefetchBusy, y.prefetchBusy) << "iteration " << i;
        EXPECT_EQ(x.prefetchStall, y.prefetchStall) << "iteration " << i;
        EXPECT_EQ(x.peakGpuBytes, y.peakGpuBytes) << "iteration " << i;
        // Catches any field added later but missing from the list above.
        EXPECT_TRUE(x == y) << "iteration " << i;
    }
}

void
expectMetricsEqual(const obs::MetricsRegistry &a,
                   const obs::MetricsRegistry &b)
{
    for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
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
        for (std::size_t k = 0; k < obs::Histogram::kBuckets; ++k)
            EXPECT_EQ(x->bucket(k), y->bucket(k)) << name << " bucket " << k;
    }
}

void
expectWeightsEqual(Session &a, Session &b)
{
    const Graph &g = a.graph();
    for (std::size_t t = 0; t < g.numTensors(); ++t) {
        auto id = static_cast<TensorId>(t);
        if (g.tensor(id).kind != TensorKind::Weight)
            continue;
        const TensorState &x = a.executor().tensorState(id);
        const TensorState &y = b.executor().tensorState(id);
        EXPECT_EQ(x.weightVersion, y.weightVersion)
            << "weight " << g.tensor(id).name;
        EXPECT_EQ(x.fingerprint, y.fingerprint)
            << "weight " << g.tensor(id).name;
        EXPECT_EQ(x.expectedFp, y.expectedFp)
            << "weight " << g.tensor(id).name;
    }
}

/** Element-wise equality of the buffered capuscope trace rings. */
void
expectTracesEqual(const obs::Tracer &a, const obs::Tracer &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.recorded(), b.recorded());
    std::vector<const obs::TraceEvent *> ea, eb;
    ea.reserve(a.size());
    eb.reserve(b.size());
    a.forEach([&](const obs::TraceEvent &ev) { ea.push_back(&ev); });
    b.forEach([&](const obs::TraceEvent &ev) { eb.push_back(&ev); });
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        const obs::TraceEvent &x = *ea[i];
        const obs::TraceEvent &y = *eb[i];
        EXPECT_EQ(x.label, y.label) << "event " << i;
        EXPECT_EQ(x.ts, y.ts) << "event " << i;
        EXPECT_EQ(x.dur, y.dur) << "event " << i;
        EXPECT_EQ(x.tensor, y.tensor) << "event " << i;
        EXPECT_EQ(x.op, y.op) << "event " << i;
        EXPECT_EQ(x.bytes, y.bytes) << "event " << i;
        EXPECT_EQ(x.value, y.value) << "event " << i;
        // Backs up the list above with every other field.
        EXPECT_TRUE(x == y) << "event " << i;
    }
}

/** Run `prefix` iterations, fork, run both `tail` further; compare. */
void
checkForkDeterminism(ModelKind kind, std::int64_t batch,
                     const PolicyCase &pc, int prefix, int tail,
                     obs::ObsLevel level)
{
    Session base(buildModel(kind, batch), forkConfig(level), pc.make());
    SessionResult pre = base.run(prefix);
    ASSERT_FALSE(pre.oom) << pre.oomMessage;

    Session fork = base.fork();
    SessionResult ra = base.run(tail);
    SessionResult rb = fork.run(tail);
    ASSERT_FALSE(ra.oom) << ra.oomMessage;
    ASSERT_FALSE(rb.oom) << rb.oomMessage;

    expectIterationsEqual(ra, rb);
    EXPECT_EQ(ra.replay.executed, rb.replay.executed);
    EXPECT_EQ(ra.replay.replayed, rb.replay.replayed);
    EXPECT_EQ(ra.replay.audits, rb.replay.audits);
    expectWeightsEqual(base, fork);
    expectMetricsEqual(base.executor().obs().metrics,
                       fork.executor().obs().metrics);
    if (level == obs::ObsLevel::Full)
        expectTracesEqual(base.executor().obs().tracer,
                          fork.executor().obs().tracer);
}

} // namespace

// --- fork determinism across the zoo ----------------------------------

TEST(ForkDeterminism, ZooTimesPolicies)
{
    for (const auto &zc : kZoo) {
        for (const auto &pc : kPolicies) {
            SCOPED_TRACE(std::string(zc.name) + "/" + pc.name);
            checkForkDeterminism(zc.kind, zc.batch, pc, /*prefix=*/4,
                                 /*tail=*/6, obs::ObsLevel::Metrics);
        }
    }
}

/** Forking at several iteration boundaries, including before the plan
 *  stabilizes (k=1) and deep into steady-state replay (k=8). */
TEST(ForkDeterminism, SeveralForkPoints)
{
    for (int prefix : {1, 3, 8}) {
        SCOPED_TRACE("prefix=" + std::to_string(prefix));
        checkForkDeterminism(ModelKind::Vgg16, 230, kPolicies[0], prefix,
                             /*tail=*/12 - prefix, obs::ObsLevel::Metrics);
    }
}

/** Full tracing on: forked capuscope traces must be bit-identical too. */
TEST(ForkDeterminism, TraceIdentity)
{
    checkForkDeterminism(ModelKind::Vgg16, 230, kPolicies[0], /*prefix=*/3,
                         /*tail=*/5, obs::ObsLevel::Full);
}

/** A fork taken mid-run of a dynamic (capudrift) workload stays
 *  bit-identical: per-shape-class replay tracks are part of the copied
 *  state. */
TEST(ForkDeterminism, DynamicWorkload)
{
    DynamicWorkload wl =
        buildWorkload(WorkloadKind::Varlen, "bert", 64, /*seed=*/7);
    ExecConfig cfg = forkConfig();
    cfg.variantSchedule = wl.schedule;

    Session base(std::move(wl.graph), cfg, makeCapuchinPolicy());
    SessionResult pre = base.run(5);
    ASSERT_FALSE(pre.oom) << pre.oomMessage;

    Session fork = base.fork();
    SessionResult ra = base.run(7);
    SessionResult rb = fork.run(7);
    ASSERT_FALSE(ra.oom) << ra.oomMessage;
    ASSERT_FALSE(rb.oom) << rb.oomMessage;
    expectIterationsEqual(ra, rb);
    expectWeightsEqual(base, fork);
}

// --- run() splitting (the invariant fork determinism builds on) -------

TEST(ForkDeterminism, RunSplitEqualsStraight)
{
    constexpr int kTotal = 12;
    for (int split : {2, 5, 9}) {
        SCOPED_TRACE("split=" + std::to_string(split));
        Session whole(buildModel(ModelKind::ResNet50, 200), forkConfig(),
                      makeCapuchinPolicy());
        Session parts(buildModel(ModelKind::ResNet50, 200), forkConfig(),
                      makeCapuchinPolicy());
        SessionResult rw = whole.run(kTotal);
        SessionResult r1 = parts.run(split);
        SessionResult r2 = parts.run(kTotal - split);
        ASSERT_FALSE(rw.oom);
        ASSERT_FALSE(r1.oom);
        ASSERT_FALSE(r2.oom);
        // Stitch the two part-results and compare against one straight run.
        SessionResult stitched;
        stitched.iterations = r1.iterations;
        stitched.iterations.insert(stitched.iterations.end(),
                                   r2.iterations.begin(),
                                   r2.iterations.end());
        ASSERT_EQ(stitched.iterations.size(), rw.iterations.size());
        expectIterationsEqual(stitched, rw);
        // Replay accounting is cumulative: the second result covers all 12.
        EXPECT_EQ(r2.replay.executed + r2.replay.replayed, kTotal);
        expectWeightsEqual(whole, parts);
        expectMetricsEqual(whole.executor().obs().metrics,
                           parts.executor().obs().metrics);
    }
}

// --- structural guarantees: shared graph, no re-measure ----------------

TEST(ForkStructure, SharedGraphNoRemeasure)
{
    Session base(buildModel(ModelKind::Vgg16, 230), forkConfig(),
                 makeCapuchinPolicy());
    SessionResult pre = base.run(4);
    ASSERT_FALSE(pre.oom);

    auto *basePolicy = dynamic_cast<CapuchinPolicy *>(base.policy());
    ASSERT_NE(basePolicy, nullptr);
    ASSERT_TRUE(basePolicy->planBuilt());

    Session fork = base.fork();
    // The immutable graph is shared, not copied or re-measured.
    EXPECT_EQ(&fork.graph(), &base.graph());
    // The fork resumes at the same iteration with the plan already built:
    // no re-setup, no re-measurement pass.
    EXPECT_EQ(fork.executor().iteration(), base.executor().iteration());
    auto *forkPolicy = dynamic_cast<CapuchinPolicy *>(fork.policy());
    ASSERT_NE(forkPolicy, nullptr);
    EXPECT_TRUE(forkPolicy->planBuilt());
    EXPECT_NE(forkPolicy, basePolicy);
}

TEST(ForkStructure, SnapshotSharesGraphToo)
{
    Session base(buildModel(ModelKind::Vgg16, 230), forkConfig(),
                 makeCapuchinPolicy());
    ASSERT_FALSE(base.run(3).oom);
    SimState snap = base.snapshot();
    EXPECT_EQ(&snap.graph(), &base.graph());
    Session f1 = snap.fork();
    Session f2 = snap.fork();
    EXPECT_EQ(&f1.graph(), &base.graph());
    EXPECT_EQ(&f2.graph(), &base.graph());
}

/** Forking under a replacement policy: the new policy starts fresh on the
 *  snapshot's machine state and the run completes. */
TEST(ForkStructure, PolicySwapFork)
{
    Session base(buildModel(ModelKind::Vgg16, 230), forkConfig(),
                 makeCapuchinPolicy());
    ASSERT_FALSE(base.run(4).oom);

    Session swapped = base.fork(makeVdnnPolicy());
    ASSERT_NE(swapped.policy(), nullptr);
    EXPECT_NE(swapped.policy()->name(), base.policy()->name());
    SessionResult r = swapped.run(6);
    EXPECT_FALSE(r.oom) << r.oomMessage;
    // The original is untouched by the swap.
    SessionResult ro = base.run(6);
    EXPECT_FALSE(ro.oom) << ro.oomMessage;
}

// --- concurrent forking from one SimState ------------------------------

TEST(ForkConcurrency, SnapshotConcurrentForks)
{
    Session base(buildModel(ModelKind::Vgg16, 230), forkConfig(),
                 makeCapuchinPolicy());
    ASSERT_FALSE(base.run(3).oom);
    SimState snap = base.snapshot();

    // Reference: one serial fork continuation.
    Session ref = snap.fork();
    SessionResult want = ref.run(5);
    ASSERT_FALSE(want.oom);

    constexpr std::size_t kForks = 8;
    std::vector<SessionResult> got(kForks);
    {
        ThreadPool pool(4);
        pool.forEachIndex(kForks, [&](std::size_t i) {
            Session s = snap.fork();
            got[i] = s.run(5);
        });
    }
    for (std::size_t i = 0; i < kForks; ++i) {
        SCOPED_TRACE("fork " + std::to_string(i));
        ASSERT_FALSE(got[i].oom);
        expectIterationsEqual(want, got[i]);
    }
}

// --- speculate(): what-if policy race ----------------------------------

TEST(Speculate, DeterministicAcrossJobCounts)
{
    std::vector<PolicyFactoryFn> variants = {
        [] { return makeCapuchinPolicy(); },
        [] { return makeVdnnPolicy(); },
        [] {
            return makeCheckpointingPolicy(CheckpointingPolicy::Mode::Speed);
        },
    };

    Session base(buildModel(ModelKind::Vgg16, 230), forkConfig(),
                 makeCapuchinPolicy());
    ASSERT_FALSE(base.run(3).oom);

    SpeculateResult serial = base.speculate(variants, 5, /*jobs=*/1);
    SpeculateResult parallel = base.speculate(variants, 5, /*jobs=*/4);

    ASSERT_EQ(serial.candidates.size(), variants.size());
    ASSERT_EQ(parallel.candidates.size(), variants.size());
    EXPECT_EQ(serial.winner, parallel.winner);
    for (std::size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE("variant " + std::to_string(i));
        EXPECT_EQ(serial.candidates[i].policyName,
                  parallel.candidates[i].policyName);
        EXPECT_EQ(serial.candidates[i].steadyTicks,
                  parallel.candidates[i].steadyTicks);
        expectIterationsEqual(serial.candidates[i].result,
                              parallel.candidates[i].result);
    }
    // speculate() must not advance the session itself.
    SessionResult after = base.run(2);
    EXPECT_FALSE(after.oom);
    EXPECT_EQ(after.iterations.front().iteration, 3);
}

// --- parallel findMaxBatch ≡ serial findMaxBatch -----------------------

TEST(ParallelMaxBatch, EqualsSerial)
{
    auto builder = [](std::int64_t b) {
        return buildModel(ModelKind::Vgg16, b);
    };
    auto policy = [] { return makeCapuchinPolicy(); };
    ExecConfig cfg = forkConfig();

    MaxBatchStats serialStats;
    std::int64_t serial = findMaxBatch(builder, policy, cfg, 2, 16, 512,
                                       /*jobs=*/1, &serialStats);
    MaxBatchStats parStats;
    std::int64_t par = findMaxBatch(builder, policy, cfg, 2, 16, 512,
                                    /*jobs=*/4, &parStats);
    EXPECT_EQ(serial, par);
    EXPECT_GT(serial, 0);
    EXPECT_EQ(serialStats.speculated, 0);
    EXPECT_EQ(serialStats.jobs, 1u);
    EXPECT_EQ(parStats.jobs, 4u);
    // Parallel mode actually speculated, and the serial decision sequence
    // consumed at least some warmed probes.
    EXPECT_GT(parStats.speculated, 0);
    EXPECT_GT(parStats.servedFromWarm, 0);
    EXPECT_EQ(parStats.wasted,
              parStats.speculated - parStats.servedFromWarm);
}

TEST(ParallelMaxBatch, DynamicWorkloadEqualsSerial)
{
    const int seed = 11;
    DynamicWorkload ref =
        buildWorkload(WorkloadKind::Varlen, "bert", 32, seed);
    ExecConfig cfg = forkConfig();
    cfg.variantSchedule = ref.schedule;
    auto builder = [seed](std::int64_t b) {
        return buildWorkload(WorkloadKind::Varlen, "bert", b, seed).graph;
    };
    auto policy = [] { return makeCapuchinPolicy(); };

    std::int64_t serial =
        findMaxBatch(builder, policy, cfg, 2, 8, 256, /*jobs=*/1);
    std::int64_t par =
        findMaxBatch(builder, policy, cfg, 2, 8, 256, /*jobs=*/4);
    EXPECT_EQ(serial, par);
    EXPECT_GT(serial, 0);
}

// --- value-semantics regressions: EventQueue / BfcAllocator ------------

/** A copied EventQueue fires the same schedule independently — ids,
 *  lazy-cancellation bookkeeping and the heap are all value state, not
 *  process-global. */
TEST(ValueSemantics, EventQueueCopyIndependent)
{
    EventQueue q;
    std::vector<int> fired;
    std::uint64_t a = q.schedule(10, [&](Tick) { fired.push_back(1); });
    q.schedule(20, [&](Tick) { fired.push_back(2); });
    q.schedule(30, [&](Tick) { fired.push_back(3); });

    EventQueue copy = q;
    EXPECT_EQ(copy.pending(), q.pending());
    EXPECT_EQ(copy.now(), q.now());

    // Cancelling in the original must not affect the copy (ids are values
    // carried by the copy, not shared process state).
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_EQ(copy.pending(), 3u);

    // The copy still knows the id and can cancel it itself.
    EXPECT_TRUE(copy.cancel(a));
    EXPECT_EQ(copy.pending(), 2u);

    fired.clear();
    q.runAll();
    EXPECT_EQ(fired, (std::vector<int>{2, 3}));
    fired.clear();
    copy.runAll();
    EXPECT_EQ(fired, (std::vector<int>{2, 3}));
    EXPECT_EQ(q.now(), copy.now());

    // New ids issued after the split stay disjoint per instance and do
    // not collide with each other's bookkeeping.
    std::uint64_t n1 = q.schedule(40, [](Tick) {});
    std::uint64_t n2 = copy.schedule(40, [](Tick) {});
    EXPECT_EQ(n1, n2) << "id sequences are per-instance, not global";
    EXPECT_TRUE(q.cancel(n1));
    EXPECT_TRUE(copy.cancel(n2));
}

/** A copied BfcAllocator carries the full arena layout by value: frees
 *  and allocations on one side never leak into the other. */
TEST(ValueSemantics, BfcAllocatorCopyIndependent)
{
    BfcAllocator alloc(1 << 20);
    auto h1 = alloc.allocate(4096, BfcAllocator::Placement::Auto);
    auto h2 = alloc.allocate(8192, BfcAllocator::Placement::Auto);
    auto h3 = alloc.allocate(2048, BfcAllocator::Placement::Auto);
    ASSERT_TRUE(h1 && h2 && h3);

    BfcAllocator copy = alloc;
    EXPECT_EQ(copy.bytesInUse(), alloc.bytesInUse());
    EXPECT_EQ(copy.fragmentation(), alloc.fragmentation());

    // Free in the original; the copy's arena must be untouched.
    alloc.deallocate(*h2);
    EXPECT_LT(alloc.bytesInUse(), copy.bytesInUse());

    // The copy can free the same (value) handle independently...
    copy.deallocate(*h2);
    EXPECT_EQ(copy.bytesInUse(), alloc.bytesInUse());

    // ...and both sides converge to identical layouts after mirrored ops.
    auto a4 = alloc.allocate(16384, BfcAllocator::Placement::Auto);
    auto c4 = copy.allocate(16384, BfcAllocator::Placement::Auto);
    ASSERT_TRUE(a4 && c4);
    EXPECT_EQ(*a4, *c4) << "best-fit must pick the same offset";
    EXPECT_EQ(alloc.bytesInUse(), copy.bytesInUse());
    EXPECT_EQ(alloc.stats().splitCount, copy.stats().splitCount);
    EXPECT_EQ(alloc.stats().mergeCount, copy.stats().mergeCount);

    alloc.deallocate(*h1);
    alloc.deallocate(*h3);
    alloc.deallocate(*a4);
    copy.deallocate(*h1);
    copy.deallocate(*h3);
    copy.deallocate(*c4);
    EXPECT_EQ(alloc.bytesInUse(), 0u);
    EXPECT_EQ(copy.bytesInUse(), 0u);
    EXPECT_EQ(alloc.fragmentation(), copy.fragmentation());
}
