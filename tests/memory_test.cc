/**
 * @file
 * Unit + property tests for the memory substrate: BFC allocator, deferred
 * frees, host pool, and the time-aware MemoryManager.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "exec/memory_manager.hh"
#include "memory/bfc_allocator.hh"
#include "memory/deferred_free.hh"
#include "memory/host_pool.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace capu;

// --- BfcAllocator basics ---

TEST(Bfc, AllocateAndFree)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(1000);
    ASSERT_TRUE(h.has_value());
    EXPECT_GT(a.bytesInUse(), 0u);
    a.deallocate(*h);
    EXPECT_EQ(a.bytesInUse(), 0u);
    a.checkInvariants();
}

TEST(Bfc, RoundsToAlignment)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(1);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(a.bytesInUse(), BfcAllocator::kAlignment);
    a.deallocate(*h);
}

TEST(Bfc, LargeRequestsRoundToSizeClass)
{
    BfcAllocator a(4_GiB);
    std::uint64_t req = 100_MiB;
    auto h = a.allocate(req);
    ASSERT_TRUE(h.has_value());
    // Rounded up, but by no more than the 12.5% geometric class overhead.
    EXPECT_GE(a.bytesInUse(), req);
    EXPECT_LE(a.bytesInUse(),
              req + req / 8 + BfcAllocator::kAlignment);
    // Two requests in the same class produce identical chunk sizes.
    auto h2 = a.allocate(req - 100);
    ASSERT_TRUE(h2.has_value());
    EXPECT_EQ(a.allocationSize(*h), a.allocationSize(*h2));
    a.deallocate(*h);
    a.deallocate(*h2);
}

TEST(Bfc, FailsWhenFull)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(1_MiB);
    ASSERT_TRUE(h.has_value());
    EXPECT_FALSE(a.allocate(256).has_value());
    EXPECT_EQ(a.stats().failedAllocs, 1u);
    a.deallocate(*h);
}

TEST(Bfc, OversizeRequestFails)
{
    BfcAllocator a(1_MiB);
    EXPECT_FALSE(a.allocate(2_MiB).has_value());
}

TEST(Bfc, CoalescesNeighbours)
{
    BfcAllocator a(1_MiB);
    auto h1 = a.allocate(256_KiB);
    auto h2 = a.allocate(256_KiB);
    auto h3 = a.allocate(256_KiB);
    ASSERT_TRUE(h1 && h2 && h3);
    a.deallocate(*h1);
    a.deallocate(*h3);
    a.deallocate(*h2); // merges all three plus the tail into one chunk
    EXPECT_EQ(a.stats().freeChunkCount, 1u);
    EXPECT_EQ(a.stats().largestFreeChunk, a.capacity());
    a.checkInvariants();
}

TEST(Bfc, BestFitPrefersSmallestChunk)
{
    BfcAllocator a(1_MiB);
    auto h1 = a.allocate(100_KiB);
    auto h2 = a.allocate(10_KiB);
    auto h3 = a.allocate(500_KiB);
    ASSERT_TRUE(h1 && h2 && h3);
    a.deallocate(*h1); // 100 KiB hole at offset of h1
    // A 50 KiB request must come from the 100 KiB hole, not the tail.
    auto h4 = a.allocate(50_KiB);
    ASSERT_TRUE(h4.has_value());
    EXPECT_EQ(*h4, *h1);
    a.checkInvariants();
}

TEST(Bfc, LargeAllocationsPlaceHigh)
{
    BfcAllocator a(4_GiB);
    auto small = a.allocate(1_KiB);
    auto large = a.allocate(512_MiB);
    ASSERT_TRUE(small && large);
    EXPECT_LT(*small, *large);
    // The large chunk is carved from the arena top.
    EXPECT_EQ(*large + a.allocationSize(*large), a.capacity());
}

TEST(Bfc, LowPlacementOverridesForLarge)
{
    BfcAllocator a(4_GiB);
    auto w = a.allocate(512_MiB, BfcAllocator::Placement::Low);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(*w, 0u); // packed at the bottom (weights at setup)
}

TEST(Bfc, CanAllocateChecksContiguity)
{
    BfcAllocator a(1_MiB);
    auto h1 = a.allocate(400_KiB);
    auto h2 = a.allocate(200_KiB);
    auto h3 = a.allocate(400_KiB);
    ASSERT_TRUE(h1 && h2 && h3);
    a.deallocate(*h1);
    a.deallocate(*h3);
    // ~800 KiB free in two pieces; 600 KiB contiguous is impossible.
    EXPECT_GE(a.bytesFree(), 600_KiB);
    EXPECT_FALSE(a.canAllocate(600_KiB));
    EXPECT_TRUE(a.canAllocate(300_KiB));
}

TEST(Bfc, DoubleFreePanics)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(1_KiB);
    a.deallocate(*h);
    EXPECT_THROW(a.deallocate(*h), PanicError);
}

TEST(Bfc, UnknownFreePanics)
{
    BfcAllocator a(1_MiB);
    EXPECT_THROW(a.deallocate(12345), PanicError);
}

TEST(Bfc, PeakTracking)
{
    BfcAllocator a(1_MiB);
    auto h1 = a.allocate(100_KiB);
    auto h2 = a.allocate(100_KiB);
    a.deallocate(*h1);
    a.deallocate(*h2);
    EXPECT_GE(a.stats().peakBytesInUse, 200_KiB);
    a.resetPeak();
    EXPECT_EQ(a.stats().peakBytesInUse, 0u);
}

TEST(Bfc, SnapshotTilesArena)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(128_KiB);
    (void)h;
    auto snap = a.snapshot();
    std::uint64_t covered = 0;
    for (const auto &c : snap) {
        EXPECT_EQ(c.offset, covered);
        covered += c.size;
    }
    EXPECT_EQ(covered, a.capacity());
}

TEST(Bfc, ZeroCapacityIsFatal)
{
    EXPECT_THROW(BfcAllocator a(0), FatalError);
}

/** Property test: random alloc/free sequences preserve all invariants. */
class BfcPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BfcPropertyTest, RandomChurnKeepsInvariants)
{
    Rng rng(GetParam());
    BfcAllocator a(64_MiB);
    std::vector<MemHandle> live;
    std::uint64_t expect_free_count = 0;

    for (int step = 0; step < 2000; ++step) {
        bool do_alloc = live.empty() || rng.chance(0.55);
        if (do_alloc) {
            std::uint64_t bytes = rng.chance(0.2)
                                      ? rng.uniformInt(1, 8_MiB)
                                      : rng.uniformInt(1, 64_KiB);
            auto h = a.allocate(bytes);
            if (h)
                live.push_back(*h);
        } else {
            std::size_t idx = rng.uniformInt(0, live.size() - 1);
            a.deallocate(live[idx]);
            ++expect_free_count;
            live[idx] = live.back();
            live.pop_back();
        }
        if (step % 100 == 0)
            a.checkInvariants();
    }
    a.checkInvariants();
    EXPECT_EQ(a.stats().totalFrees, expect_free_count);

    for (MemHandle h : live)
        a.deallocate(h);
    a.checkInvariants();
    EXPECT_EQ(a.bytesInUse(), 0u);
    EXPECT_EQ(a.stats().freeChunkCount, 1u); // fully coalesced
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfcPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- DeferredFreeQueue ---

TEST(DeferredFree, AppliesMaturedOnly)
{
    BfcAllocator a(1_MiB);
    DeferredFreeQueue q;
    auto h1 = a.allocate(100_KiB);
    auto h2 = a.allocate(100_KiB);
    q.post(100, *h1);
    q.post(200, *h2);
    q.applyUpTo(150, a);
    EXPECT_EQ(a.stats().totalFrees, 1u);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.nextMaturity(), std::optional<Tick>(200));
    q.applyUpTo(200, a);
    EXPECT_TRUE(q.empty());
}

TEST(DeferredFree, IsPendingTracksLifecycle)
{
    BfcAllocator a(1_MiB);
    DeferredFreeQueue q;
    auto h = a.allocate(1_KiB);
    EXPECT_FALSE(q.isPending(*h));
    q.post(50, *h);
    EXPECT_TRUE(q.isPending(*h));
    q.applyUpTo(50, a);
    EXPECT_FALSE(q.isPending(*h));
}

TEST(DeferredFree, NextMaturityEmpty)
{
    DeferredFreeQueue q;
    EXPECT_FALSE(q.nextMaturity().has_value());
}

// --- HostPinnedPool ---

TEST(HostPool, AllocatesAndTracks)
{
    HostPinnedPool p(1_MiB);
    auto h = p.allocate(600_KiB);
    EXPECT_NE(h, 0u);
    EXPECT_EQ(p.bytesInUse(), 600_KiB);
    p.deallocate(h);
    EXPECT_EQ(p.bytesInUse(), 0u);
    EXPECT_EQ(p.peakBytesInUse(), 600_KiB);
}

TEST(HostPool, ExhaustionReturnsZero)
{
    HostPinnedPool p(1_MiB);
    auto h = p.allocate(900_KiB);
    EXPECT_NE(h, 0u);
    EXPECT_EQ(p.allocate(200_KiB), 0u);
    p.deallocate(h);
    EXPECT_NE(p.allocate(200_KiB), 0u);
}

TEST(HostPool, UnknownFreePanics)
{
    HostPinnedPool p(1_MiB);
    EXPECT_THROW(p.deallocate(42), PanicError);
}

// --- MemoryManager ---

TEST(MemoryManager, AllocateAppliesMaturedFrees)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto h1 = mm.allocate(0, 900_KiB);
    ASSERT_TRUE(h1);
    mm.freeAt(100, *h1);
    // At t=50 the free has not matured.
    EXPECT_FALSE(mm.allocate(50, 900_KiB).has_value());
    // At t=100 it has.
    EXPECT_TRUE(mm.allocate(100, 900_KiB).has_value());
}

TEST(MemoryManager, AllocateWaitingAdvancesClock)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto h1 = mm.allocate(0, 900_KiB);
    ASSERT_TRUE(h1);
    mm.freeAt(500, *h1);
    Tick now = 10;
    auto h2 = mm.allocateWaiting(now, 900_KiB);
    ASSERT_TRUE(h2.has_value());
    EXPECT_EQ(now, 500u); // waited for the earliest pending free
}

TEST(MemoryManager, AllocateWaitingFailsWithNoPending)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto h1 = mm.allocate(0, 900_KiB);
    ASSERT_TRUE(h1);
    Tick now = 10;
    EXPECT_FALSE(mm.allocateWaiting(now, 900_KiB).has_value());
    EXPECT_EQ(now, 10u); // clock untouched on failure
    mm.freeNow(20, *h1);
}

TEST(MemoryManager, RestagePendingReproducesLayout)
{
    // Same resident chunk, different pending frees: restaging b to a's
    // pending frees must leave the identical arena and queue.
    MemoryManager a(1_MiB, 1_GiB);
    MemoryManager b(1_MiB, 1_GiB);
    for (MemoryManager *mm : {&a, &b})
        ASSERT_TRUE(mm->allocate(0, 64_KiB, BfcAllocator::Placement::Low));
    auto a1 = a.allocate(0, 100_KiB);
    auto a2 = a.allocate(0, 30_KiB);
    a.freeAt(10, *a1);
    a.freeAt(20, *a2);
    auto b1 = b.allocate(0, 500_KiB);
    b.freeAt(5, *b1);

    b.restagePending(a.pendingFrees());
    b.gpu().checkInvariants();
    auto sa = a.gpu().snapshot();
    auto sb = b.gpu().snapshot();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].offset, sb[i].offset) << i;
        EXPECT_EQ(sa[i].size, sb[i].size) << i;
        EXPECT_EQ(sa[i].free, sb[i].free) << i;
    }
    auto pa = a.pendingFrees();
    auto pb = b.pendingFrees();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].when, pb[i].when) << i;
        EXPECT_EQ(pa[i].handle, pb[i].handle) << i;
        EXPECT_EQ(pa[i].bytes, pb[i].bytes) << i;
    }
    // Only a range inside one free chunk can be allocated in place.
    EXPECT_THROW(b.gpu().allocateAt(*a1, 256), PanicError);
}

TEST(MemoryManager, DrainAll)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto h = mm.allocate(0, 100_KiB);
    mm.freeAt(1000000, *h);
    mm.drainAll();
    EXPECT_EQ(mm.gpu().bytesInUse(), 0u);
}
