/**
 * @file
 * Property tests with a randomized memory policy.
 *
 * A fuzzing MemoryPolicy issues random (but legal) evictions, drops and
 * prefetches at random access points. Whatever it does, the executor must
 * uphold the system invariants:
 *
 *   - every consumed tensor carries the right lineage fingerprint
 *     (the executor panics otherwise);
 *   - iteration results are identical for identical seeds;
 *   - the memory pool returns to exactly the persistent set afterwards;
 *   - the allocator's structural invariants survive the churn.
 *
 * This is the closest thing to adversarial testing the mechanics get —
 * the real policies are far better behaved than this one.
 */

#include <gtest/gtest.h>

#include "exec/executor.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "support/rng.hh"
#include "test_graphs.hh"

using namespace capu;
using capu::test::ChainGraph;

namespace
{

class FuzzPolicy : public MemoryPolicy
{
  public:
    explicit FuzzPolicy(std::uint64_t seed, double action_rate = 0.08)
        : rng_(seed), rate_(action_rate)
    {
    }

    std::string name() const override { return "fuzz"; }
    bool graphAgnostic() const override { return true; }

    void
    onAccess(ExecContext &ctx, const AccessEvent &ev) override
    {
        (void)ev;
        if (!rng_.chance(rate_))
            return;
        // Pick a random tensor and try a random action on it; all the
        // safety conditions live in the executor/actions themselves.
        auto id = static_cast<TensorId>(
            rng_.uniformInt(0, ctx.graph().numTensors() - 1));
        const TensorDesc &t = ctx.graph().tensor(id);
        if (t.kind == TensorKind::Weight)
            return;
        switch (rng_.uniformInt(0, 3)) {
          case 0:
            if (ctx.status(id) == TensorStatus::In)
                ctx.evictSwapAsync(id);
            break;
          case 1:
            // The fuzzer has no trace foresight, so it may only drop
            // tensors that stay regenerable no matter what is freed next.
            if (ctx.status(id) == TensorStatus::In &&
                ctx.canRegenerateStably(id))
                ctx.evictDrop(id);
            break;
          case 2:
            ctx.prefetchAsync(id); // no-op unless swapped out
            break;
          case 3:
            if (!ctx.isPinned(id))
                ctx.evictSwapSync(id);
            break;
        }
    }

    bool
    onAllocFailure(ExecContext &ctx, std::uint64_t bytes) override
    {
        // Minimal survival instinct so fuzz runs can finish on the small
        // test device: evict whatever helps.
        for (TensorId id : ctx.victimsForContiguous(bytes)) {
            if (ctx.evictSwapSync(id))
                return true;
        }
        for (TensorId id = 0; id < ctx.graph().numTensors(); ++id) {
            if (ctx.graph().tensor(id).kind == TensorKind::Weight)
                continue;
            if (!ctx.isPinned(id) && ctx.status(id) == TensorStatus::In &&
                ctx.evictSwapSync(id))
                return true;
        }
        return false;
    }

  private:
    Rng rng_;
    double rate_;
};

} // namespace

class FuzzPolicyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzPolicyTest, ChainSurvivesRandomActions)
{
    ChainGraph cg(24, 512_KiB, 2e7, true);
    ExecConfig cfg;
    cfg.device = GpuDeviceSpec::testDevice(24_MiB);

    FuzzPolicy policy(GetParam());
    Executor ex(cg.graph, cfg, &policy);
    ex.setup();
    for (int i = 0; i < 4; ++i)
        EXPECT_NO_THROW(ex.runIteration()) << "iteration " << i;

    ex.memory().drainAll();
    EXPECT_EQ(ex.memory().gpu().bytesInUse(),
              cg.graph.bytesOfKind(TensorKind::Weight));
    EXPECT_EQ(ex.memory().host().bytesInUse(), 0u);
    ex.memory().gpu().checkInvariants();
}

TEST_P(FuzzPolicyTest, ResNetSurvivesRandomActions)
{
    ExecConfig cfg;
    FuzzPolicy policy(GetParam(), 0.02);
    Graph g = buildResNet(64, 50);
    Executor ex(g, cfg, &policy);
    ex.setup();
    for (int i = 0; i < 2; ++i)
        EXPECT_NO_THROW(ex.runIteration());
    ex.memory().drainAll();
    ex.memory().gpu().checkInvariants();
    EXPECT_EQ(ex.memory().host().bytesInUse(), 0u);
}

TEST_P(FuzzPolicyTest, SameSeedSameTimeline)
{
    auto run = [&](std::uint64_t seed) {
        ChainGraph cg(16, 512_KiB, 2e7, true);
        ExecConfig cfg;
        cfg.device = GpuDeviceSpec::testDevice(16_MiB);
        FuzzPolicy policy(seed);
        Executor ex(cg.graph, cfg, &policy);
        ex.setup();
        Tick total = 0;
        for (int i = 0; i < 3; ++i)
            total += ex.runIteration().duration();
        return total;
    };
    EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPolicyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));
