/**
 * @file
 * Tests for the capuspeed hot-path structures: the work-stealing
 * ThreadPool, the 4-ary EventQueue against a reference model, the
 * incremental PolicyMaker engine against the test-only full-rescan
 * oracle on every zoo model, findMaxBatch against plain bisection,
 * CostModel memoization transparency, and the indexed AccessTracker
 * queries against brute-force scans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/capuchin_policy.hh"
#include "core/policy_maker.hh"
#include "exec/cost_model.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"
#include "sim/gpu_device.hh"
#include "support/logging.hh"
#include "policy/vdnn_policy.hh"
#include "support/thread_pool.hh"

#include "reference_policy_maker.hh"

using namespace capu;

namespace
{

/** Deterministic xorshift64 for test workloads. */
struct XorShift
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

} // namespace

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, SubmitPropagatesResults)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i)
        futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount)
{
    // The determinism contract: tasks write index-addressed slots, so
    // any worker count produces the same output vector.
    auto run = [](unsigned threads) {
        std::vector<std::uint64_t> out(200);
        ThreadPool pool(threads);
        pool.forEachIndex(out.size(), [&](std::size_t i) {
            XorShift r;
            r.x += i;
            out[i] = r.next() ^ (i << 32);
        });
        return out;
    };
    auto serial = run(1);
    EXPECT_EQ(serial, run(2));
    EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(500);
    ThreadPool pool(4);
    pool.forEachIndex(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ExceptionPropagatesFromForEachIndex)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    EXPECT_THROW(pool.forEachIndex(32,
                                   [&](std::size_t i) {
                                       if (i == 7)
                                           throw std::runtime_error("boom");
                                       done.fetch_add(1);
                                   }),
                 std::runtime_error);
    // The non-throwing indices all still ran (the pool drains before
    // rethrowing).
    EXPECT_EQ(done.load(), 31);
}

TEST(ThreadPool, ExceptionPropagatesThroughSubmitFuture)
{
    ThreadPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw std::logic_error("task failed"); });
    EXPECT_THROW(fut.get(), std::logic_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 300; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        // Destructor must complete all 300, not drop the queued tail.
    }
    EXPECT_EQ(ran.load(), 300);
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool pool; // default-constructed pool must come up and go down
    EXPECT_GE(pool.threadCount(), 1u);
}

// ---------------------------------------------------------------- EventQueue

namespace
{

/** Reference model: fire order is ascending (when, id). */
std::vector<std::uint64_t>
referenceFireOrder(const std::vector<std::pair<Tick, std::uint64_t>> &evts,
                   const std::vector<std::uint64_t> &cancelled)
{
    auto sorted = evts;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint64_t> order;
    for (const auto &[when, id] : sorted) {
        if (std::find(cancelled.begin(), cancelled.end(), id) ==
            cancelled.end())
            order.push_back(id);
    }
    return order;
}

} // namespace

TEST(EventQueue, MatchesReferenceModelOnRandomSchedule)
{
    XorShift rng;
    EventQueue q;
    std::vector<std::pair<Tick, std::uint64_t>> evts;
    std::vector<std::uint64_t> fired;
    for (int i = 0; i < 2000; ++i) {
        Tick when = rng.next() % 1000; // dense: many equal ticks
        auto id = q.schedule(
            when, [&fired, i](Tick) { fired.push_back(i); });
        EXPECT_EQ(id, static_cast<std::uint64_t>(i));
        evts.push_back({when, id});
    }
    // Cancel a deterministic subset before anything fires.
    std::vector<std::uint64_t> cancelled;
    for (std::uint64_t id = 3; id < 2000; id += 7) {
        EXPECT_TRUE(q.cancel(id));
        cancelled.push_back(id);
    }
    q.runAll();
    EXPECT_EQ(fired, referenceFireOrder(evts, cancelled));
}

TEST(EventQueue, RunUntilHonorsBoundAndInsertDuringRun)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10, [&](Tick) {
        fired.push_back(1);
        // Scheduling from inside a callback must keep the order.
        q.schedule(15, [&](Tick) { fired.push_back(2); });
    });
    q.schedule(30, [&](Tick) { fired.push_back(3); });
    q.runUntil(20);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 20u); // runUntil advances now() to the bound
    EXPECT_EQ(q.pending(), 1u);
    q.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelSemantics)
{
    EventQueue q;
    int hits = 0;
    auto id = q.schedule(5, [&](Tick) { ++hits; });
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.cancel(id + 100)); // never-issued id
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // double-cancel
    EXPECT_TRUE(q.empty());
    q.runAll();
    EXPECT_EQ(hits, 0);
}

TEST(EventQueue, EqualTicksFireInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i)
        q.schedule(42, [&order, i](Tick) { order.push_back(i); });
    q.runAll();
    std::vector<int> want(50);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want);
}

// ----------------------------------------------------- PolicyMaker engines

namespace
{

void
expectPlansIdentical(const Plan &ref, const Plan &inc, const char *model)
{
    ASSERT_EQ(ref.items.size(), inc.items.size()) << model;
    EXPECT_EQ(ref.targetBytes, inc.targetBytes) << model;
    EXPECT_EQ(ref.plannedBytes, inc.plannedBytes) << model;
    EXPECT_EQ(ref.swapCount, inc.swapCount) << model;
    EXPECT_EQ(ref.recomputeCount, inc.recomputeCount) << model;
    for (std::size_t i = 0; i < ref.items.size(); ++i) {
        const PlannedEviction &a = ref.items[i];
        const PlannedEviction &b = inc.items[i];
        EXPECT_EQ(a.tensor, b.tensor) << model << " item " << i;
        EXPECT_EQ(a.mode, b.mode) << model << " item " << i;
        EXPECT_EQ(a.bytes, b.bytes) << model << " item " << i;
        EXPECT_EQ(a.evictAfterAccess, b.evictAfterAccess)
            << model << " item " << i;
        EXPECT_EQ(a.backAccess, b.backAccess) << model << " item " << i;
        EXPECT_EQ(a.evictTime, b.evictTime) << model << " item " << i;
        EXPECT_EQ(a.backTime, b.backTime) << model << " item " << i;
        EXPECT_EQ(a.swapTime, b.swapTime) << model << " item " << i;
        EXPECT_EQ(a.freeTime, b.freeTime) << model << " item " << i;
        EXPECT_EQ(a.desiredSwapInStart, b.desiredSwapInStart)
            << model << " item " << i;
        EXPECT_EQ(a.triggerTensor, b.triggerTensor)
            << model << " item " << i;
        EXPECT_EQ(a.triggerAccess, b.triggerAccess)
            << model << " item " << i;
        EXPECT_EQ(a.recomputeTime, b.recomputeTime)
            << model << " item " << i;
        EXPECT_EQ(a.estimatedOverhead, b.estimatedOverhead)
            << model << " item " << i;
    }
}

/**
 * Run one measured-then-guided session at an oversubscribed batch, then
 * rebuild the plan standalone with the production engine and the
 * full-rescan oracle and demand byte-for-byte identical output, under the
 * hybrid default and under each one-sided option.
 */
void
checkIncrementalMatchesReference(ModelKind kind, std::int64_t batch)
{
    setLogEnabled(false);
    CapuchinOptions copts;
    Session session(buildModel(kind, batch), ExecConfig{},
                    makeCapuchinPolicy(copts));
    auto r = session.run(2);
    ASSERT_FALSE(r.oom) << modelName(kind) << "@" << batch;
    auto *capu = dynamic_cast<CapuchinPolicy *>(session.policy());
    ASSERT_NE(capu, nullptr);
    ASSERT_TRUE(capu->planBuilt())
        << modelName(kind) << "@" << batch
        << ": batch not oversubscribed, test is vacuous";

    Executor &ex = session.executor();
    auto target = static_cast<std::uint64_t>(
        static_cast<double>(capu->measuredEvictedBytes()) *
        copts.savingMargin);
    auto bytes_fn = [&](TensorId id) { return ex.tensorBytes(id); };
    auto swap_fn = [&](std::uint64_t b) { return ex.swapTime(b); };

    // The hybrid default, then each one-sided branch of Algorithm 1.
    PolicyMakerOptions hybrid, no_swap, no_recompute;
    no_swap.enableSwap = false;
    no_recompute.enableRecompute = false;
    for (const PolicyMakerOptions &pmo : {hybrid, no_swap, no_recompute}) {
        std::string label = std::string(modelName(kind)) +
                            (!pmo.enableSwap        ? " (no swap)"
                             : !pmo.enableRecompute ? " (no recompute)"
                                                    : "");
        Plan ref =
            ReferencePolicyMaker(session.graph(), capu->tracker(), pmo)
                .build(target, bytes_fn, swap_fn, ex.gpuCapacity());
        Plan inc = PolicyMaker(session.graph(), capu->tracker(), pmo)
                       .build(target, bytes_fn, swap_fn, ex.gpuCapacity());
        EXPECT_GT(inc.items.size(), 0u)
            << label << ": empty plan makes this test vacuous";
        expectPlansIdentical(ref, inc, label.c_str());
    }
    // (The *live* policy's plan is deliberately not compared: iterative
    // refinement grows its saving target beyond measuredEvicted ×
    // savingMargin, and runtime feedback shifts trigger timing.)
}

} // namespace

TEST(IncrementalPlan, Vgg16) { checkIncrementalMatchesReference(ModelKind::Vgg16, 260); }
TEST(IncrementalPlan, ResNet50) { checkIncrementalMatchesReference(ModelKind::ResNet50, 240); }
TEST(IncrementalPlan, ResNet152) { checkIncrementalMatchesReference(ModelKind::ResNet152, 110); }
TEST(IncrementalPlan, InceptionV3) { checkIncrementalMatchesReference(ModelKind::InceptionV3, 210); }
TEST(IncrementalPlan, InceptionV4) { checkIncrementalMatchesReference(ModelKind::InceptionV4, 120); }
TEST(IncrementalPlan, DenseNet121) { checkIncrementalMatchesReference(ModelKind::DenseNet121, 200); }
TEST(IncrementalPlan, BertBase) { checkIncrementalMatchesReference(ModelKind::BertBase, 110); }

// ------------------------------------------------ max-batch search oracle

namespace
{

/**
 * Plain bisection over [lo, hi]: no memo, no gallop, a fresh session per
 * feasibility question, and findMaxBatch's robustness rule (the batch one
 * 1/32 step below must fit too).
 */
std::int64_t
bisectMaxBatch(const GraphBuilderFn &builder,
               const PolicyFactoryFn &make_policy, const ExecConfig &config,
               int iterations, std::int64_t lo, std::int64_t hi)
{
    auto feasible = [&](std::int64_t batch) {
        Session session(builder(batch), config, make_policy());
        return !session.run(iterations).oom;
    };
    auto robust = [&](std::int64_t batch) {
        std::int64_t step = std::max<std::int64_t>(1, batch / 32);
        return feasible(batch) &&
               (batch - step < lo || feasible(batch - step));
    };
    if (!feasible(lo))
        return 0;
    if (robust(hi))
        return hi;
    std::int64_t good = lo;
    std::int64_t bad = hi;
    while (good + 1 < bad) {
        std::int64_t mid = good + (bad - good) / 2;
        if (robust(mid))
            good = mid;
        else
            bad = mid;
    }
    return good;
}

/** vDNN over [1, 4096] at a 60-iteration horizon, as perf_harness runs. */
void
checkMaxBatchMatchesBisection(ModelKind kind)
{
    setLogEnabled(false);
    ExecConfig cfg;
    auto builder = [kind](std::int64_t b) { return buildModel(kind, b); };
    auto policy = [] { return makeVdnnPolicy(); };
    std::int64_t fast = findMaxBatch(builder, policy, cfg, 60, 1, 4096);
    EXPECT_GT(fast, 1) << modelName(kind);
    EXPECT_EQ(fast, bisectMaxBatch(builder, policy, cfg, 60, 1, 4096))
        << modelName(kind);
}

} // namespace

TEST(MaxBatchSearch, Vgg16MatchesBisection) { checkMaxBatchMatchesBisection(ModelKind::Vgg16); }
TEST(MaxBatchSearch, BertMatchesBisection) { checkMaxBatchMatchesBisection(ModelKind::BertBase); }

// ------------------------------------------------------- CostModel memoizing

TEST(CostModelMemo, MemoizedEqualsUnmemoizedOverZooOps)
{
    CostModel memo(GpuDeviceSpec::p100());
    CostModel plain(GpuDeviceSpec::p100());
    plain.setMemoize(false);
    for (ModelKind kind : {ModelKind::Vgg16, ModelKind::ResNet50,
                           ModelKind::BertBase}) {
        Graph g = buildModel(kind, 32);
        for (const Operation &op : g.ops()) {
            EXPECT_EQ(memo.opDuration(op, true), plain.opDuration(op, true))
                << modelName(kind) << " op " << op.name;
            EXPECT_EQ(memo.opDuration(op, false),
                      plain.opDuration(op, false))
                << modelName(kind) << " op " << op.name;
        }
    }
}

TEST(CostModelMemo, RepeatedCallsAreStable)
{
    CostModel cm(GpuDeviceSpec::p100());
    Graph g = buildModel(ModelKind::ResNet50, 64);
    for (const Operation &op : g.ops()) {
        Tick first = cm.opDuration(op);
        EXPECT_EQ(cm.opDuration(op), first); // cache hit, same answer
    }
}

// -------------------------------------------------- indexed tracker queries

namespace
{

/** Brute-force oracle for AccessTracker::latestAtOrBefore. */
const AccessRecord *
bruteLatest(const std::vector<AccessRecord> &seq, Tick after, Tick before,
            Tick at_or_before, TensorId exclude)
{
    const AccessRecord *best = nullptr;
    for (const auto &rec : seq) {
        if (rec.tensor == exclude)
            continue;
        if (rec.time <= after || rec.time >= before ||
            rec.time > at_or_before)
            continue;
        if (best == nullptr || rec.time > best->time)
            best = &rec;
    }
    return best;
}

/** Brute-force oracle for AccessTracker::earliestWithin. */
const AccessRecord *
bruteEarliest(const std::vector<AccessRecord> &seq, Tick after, Tick before,
              TensorId exclude)
{
    const AccessRecord *best = nullptr;
    for (const auto &rec : seq) {
        if (rec.tensor == exclude)
            continue;
        if (rec.time <= after || rec.time >= before)
            continue;
        if (best == nullptr || rec.time < best->time)
            best = &rec;
    }
    return best;
}

AccessTracker
syntheticTracker(std::vector<AccessRecord> &seq_out)
{
    // Corrected timestamps can run locally backwards and repeat; build a
    // sequence that exercises both plus interleaved tensors.
    AccessTracker t;
    XorShift rng;
    Tick now = 100;
    for (int i = 0; i < 400; ++i) {
        AccessRecord rec;
        rec.tensor = static_cast<TensorId>(rng.next() % 12);
        rec.accessIndex = i;
        // Mostly forward, sometimes backward, frequent exact repeats.
        std::uint64_t step = rng.next() % 8;
        if (step == 0 && now > 20)
            now -= rng.next() % 15;
        else if (step > 2)
            now += rng.next() % 10;
        rec.time = now;
        t.record(rec);
        seq_out.push_back(rec);
    }
    return t;
}

} // namespace

TEST(TrackerIndex, LatestAtOrBeforeMatchesBruteForce)
{
    std::vector<AccessRecord> seq;
    AccessTracker t = syntheticTracker(seq);
    XorShift rng;
    for (int trial = 0; trial < 500; ++trial) {
        Tick after = rng.next() % 300;
        Tick before = after + rng.next() % 300;
        Tick cap = after + rng.next() % 320;
        TensorId exclude = static_cast<TensorId>(rng.next() % 14);
        const AccessRecord *want =
            bruteLatest(seq, after, before, cap, exclude);
        const AccessRecord *got =
            t.latestAtOrBefore(after, before, cap, exclude);
        if (want == nullptr) {
            EXPECT_EQ(got, nullptr) << "trial " << trial;
            continue;
        }
        ASSERT_NE(got, nullptr) << "trial " << trial;
        // Same time is required; among equal times the indexed query must
        // return the earliest sequence entry, as the old scan did.
        EXPECT_EQ(got->time, want->time) << "trial " << trial;
        EXPECT_EQ(got->accessIndex, want->accessIndex) << "trial " << trial;
        EXPECT_EQ(got->tensor, want->tensor) << "trial " << trial;
    }
}

TEST(TrackerIndex, EarliestWithinMatchesBruteForce)
{
    std::vector<AccessRecord> seq;
    AccessTracker t = syntheticTracker(seq);
    XorShift rng;
    for (int trial = 0; trial < 500; ++trial) {
        Tick after = rng.next() % 300;
        Tick before = after + rng.next() % 300;
        TensorId exclude = static_cast<TensorId>(rng.next() % 14);
        const AccessRecord *want =
            bruteEarliest(seq, after, before, exclude);
        const AccessRecord *got = t.earliestWithin(after, before, exclude);
        if (want == nullptr) {
            EXPECT_EQ(got, nullptr) << "trial " << trial;
            continue;
        }
        ASSERT_NE(got, nullptr) << "trial " << trial;
        EXPECT_EQ(got->time, want->time) << "trial " << trial;
        EXPECT_EQ(got->accessIndex, want->accessIndex) << "trial " << trial;
        EXPECT_EQ(got->tensor, want->tensor) << "trial " << trial;
    }
}

TEST(TrackerIndex, IndexInvalidatedByNewRecords)
{
    AccessTracker t;
    AccessRecord rec;
    rec.tensor = 1;
    rec.time = 50;
    t.record(rec);
    EXPECT_NE(t.earliestWithin(0, 100, kInvalidTensor), nullptr);
    rec.tensor = 2;
    rec.time = 10; // earlier than everything indexed so far
    t.record(rec);
    const AccessRecord *got = t.earliestWithin(0, 100, kInvalidTensor);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->tensor, 2u);
    t.reset();
    EXPECT_EQ(t.earliestWithin(0, 100, kInvalidTensor), nullptr);
}

// ----------------------------------------------- sim determinism under pool

TEST(PoolDeterminism, FaultFreeTimelinesBitIdenticalAcrossThreads)
{
    // The tentpole's contract: fanning identical sims across the pool
    // changes nothing about any sim's timeline.
    setLogEnabled(false);
    auto run_one = [] {
        Session session(buildModel(ModelKind::ResNet50, 48), ExecConfig{},
                        makeCapuchinPolicy());
        auto r = session.run(2);
        std::vector<Tick> timeline;
        for (const auto &it : r.iterations) {
            timeline.push_back(it.begin);
            timeline.push_back(it.end);
        }
        return timeline;
    };
    auto serial = run_one();
    std::vector<std::vector<Tick>> pooled(4);
    ThreadPool pool(4);
    pool.forEachIndex(pooled.size(),
                      [&](std::size_t i) { pooled[i] = run_one(); });
    for (const auto &tl : pooled)
        EXPECT_EQ(tl, serial);
}
