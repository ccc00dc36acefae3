/** @file Unit tests for the DES substrate: event queue, streams, PCIe. */

#include <gtest/gtest.h>

#include <vector>

#include "obs/tracer.hh"
#include "sim/event_queue.hh"
#include "sim/gpu_device.hh"
#include "sim/pcie_link.hh"
#include "sim/stream.hh"
#include "support/logging.hh"

using namespace capu;

// --- EventQueue ---

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertion)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(10, [&](Tick) { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunUntilStopsAtBound)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&](Tick) { ++fired; });
    q.schedule(20, [&](Tick) { ++fired; });
    q.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 15u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, CallbackReceivesFireTime)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(42, [&](Tick t) { seen = t; });
    q.runAll();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    int fired = 0;
    auto id = q.schedule(10, [&](Tick) { ++fired; });
    EXPECT_TRUE(q.cancel(id));
    q.runAll();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelUnknownReturnsFalse)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, DoubleCancelReturnsFalse)
{
    EventQueue q;
    auto id = q.schedule(10, [](Tick) {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(10, [](Tick) {});
    q.runAll();
    EXPECT_THROW(q.schedule(5, [](Tick) {}), PanicError);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<Tick> fires;
    q.schedule(10, [&](Tick t) {
        fires.push_back(t);
        q.schedule(t + 5, [&](Tick t2) { fires.push_back(t2); });
    });
    q.runAll();
    EXPECT_EQ(fires, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, PendingCount)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.schedule(1, [](Tick) {});
    q.schedule(2, [](Tick) {});
    EXPECT_EQ(q.pending(), 2u);
    q.runAll();
    EXPECT_TRUE(q.empty());
}

// --- Stream ---

TEST(Stream, SerializesWork)
{
    Stream s("test");
    EXPECT_EQ(s.enqueue(0, 100, {}), 100u);
    // Ready at 50 but the stream is busy until 100.
    EXPECT_EQ(s.enqueue(50, 10, {}), 110u);
}

TEST(Stream, RespectsReadyTime)
{
    Stream s("test");
    s.enqueue(0, 10, {});
    // Ready long after the stream drains: idle gap.
    EXPECT_EQ(s.enqueue(100, 10, {}), 110u);
    EXPECT_EQ(s.lastStart(), 100u);
}

TEST(Stream, EmitsTraceEvents)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    Stream s("test");
    s.attachTracer(&tracer, obs::kTrackCompute);
    s.enqueue(0, 10, {.label = obs::Label::Kernel, .op = 3});
    s.enqueue(20, 5, {.label = obs::Label::Kernel, .op = 4});
    std::vector<obs::TraceEvent> evs;
    tracer.forEach([&](const obs::TraceEvent &ev) { evs.push_back(ev); });
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].label, obs::Label::Kernel);
    EXPECT_EQ(evs[0].op, 3);
    EXPECT_EQ(evs[0].track(), obs::kTrackCompute);
    EXPECT_EQ(evs[1].ts, 20u);
    EXPECT_EQ(evs[1].dur, 5u);
    EXPECT_EQ(s.busyTime(), 15u);
    // attachTracer registers the stream's name for its track.
    bool named = false;
    for (const auto &[track, name] : tracer.trackNames())
        if (track == obs::kTrackCompute && name == "test")
            named = true;
    EXPECT_TRUE(named);
}

TEST(Stream, NoTracerNoEvents)
{
    // Timing semantics identical whether or not a tracer is attached.
    Stream s("test");
    s.enqueue(0, 10, {});
    EXPECT_EQ(s.busyUntil(), 10u);
    EXPECT_EQ(s.busyTime(), 10u);
}

TEST(Stream, DisabledTracerRecordsNothing)
{
    obs::Tracer tracer; // disabled by default
    Stream s("test");
    s.attachTracer(&tracer, obs::kTrackCompute);
    s.enqueue(0, 10, {});
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(s.busyUntil(), 10u);
}

TEST(Stream, Reset)
{
    Stream s("test");
    s.enqueue(0, 10, {});
    s.reset();
    EXPECT_EQ(s.busyUntil(), 0u);
    EXPECT_EQ(s.busyTime(), 0u);
}

// --- PcieLink ---

TEST(Pcie, TransferTimeIsLatencyPlusBandwidth)
{
    PcieLink link(1e9 /* 1 GB/s */, 100 /* ns */);
    // 1e9 bytes at 1 GB/s = 1 s = 1e9 ns, plus latency.
    EXPECT_EQ(link.transferTime(1000000000ull), 1000000100u);
    EXPECT_EQ(link.transferTime(0), 100u);
}

TEST(Pcie, SameDirectionSerializes)
{
    PcieLink link(1e9, 0);
    // 1000 ns each.
    Tick t1 = link.transfer(CopyDir::DeviceToHost, 1000, 0,
                            obs::Label::SwapOut);
    Tick t2 = link.transfer(CopyDir::DeviceToHost, 1000, 0,
                            obs::Label::SwapOut);
    EXPECT_EQ(t1, 1000u);
    EXPECT_EQ(t2, 2000u); // waits for predecessor (paper section 4.4)
}

TEST(Pcie, OppositeDirectionsConcurrent)
{
    PcieLink link(1e9, 0);
    Tick out = link.transfer(CopyDir::DeviceToHost, 1000, 0,
                             obs::Label::SwapOut);
    Tick in = link.transfer(CopyDir::HostToDevice, 1000, 0,
                            obs::Label::SwapIn);
    EXPECT_EQ(out, 1000u);
    EXPECT_EQ(in, 1000u); // no interference
}

TEST(Pcie, ZeroBandwidthIsFatal)
{
    EXPECT_THROW(PcieLink(0, 0), FatalError);
}

TEST(Pcie, LaneBusyQuery)
{
    PcieLink link(1e9, 0);
    link.transfer(CopyDir::DeviceToHost, 5000, 0, obs::Label::SwapOut);
    EXPECT_EQ(link.laneBusyUntil(CopyDir::DeviceToHost), 5000u);
    EXPECT_EQ(link.laneBusyUntil(CopyDir::HostToDevice), 0u);
}

// --- GpuDeviceSpec ---

TEST(GpuDevice, P100Preset)
{
    auto d = GpuDeviceSpec::p100();
    EXPECT_GT(d.memCapacity, 15ull << 30);
    EXPECT_LE(d.memCapacity, 16ull << 30);
    EXPECT_DOUBLE_EQ(d.pcieBandwidth, 12e9); // the paper's measured rate
}

TEST(GpuDevice, V100HasMoreOfEverything)
{
    auto p = GpuDeviceSpec::p100();
    auto v = GpuDeviceSpec::v100();
    EXPECT_GT(v.memCapacity, p.memCapacity);
    EXPECT_GT(v.peakFlops, p.peakFlops);
}

TEST(GpuDevice, TestDeviceCapacity)
{
    auto d = GpuDeviceSpec::testDevice(1_MiB);
    EXPECT_EQ(d.memCapacity, 1_MiB);
}
