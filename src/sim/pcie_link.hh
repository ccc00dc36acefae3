/**
 * @file
 * PCIe link model: two independent directions, each an exclusive FIFO lane.
 *
 * Pinned-memory cudaMemcpyAsync transfers in the same direction serialize
 * (the paper: "a swap cannot start until its preceding swap finishes"), while
 * D2H and H2D proceed concurrently with each other and with compute. Each
 * direction is a Stream; with a tracer attached, transfers appear as
 * Complete events on the D2H/H2D trace tracks — the memory-stream rows of
 * Figure-1-style timelines.
 */

#ifndef CAPU_SIM_PCIE_LINK_HH
#define CAPU_SIM_PCIE_LINK_HH

#include <cstdint>
#include <optional>

#include "faults/fault_engine.hh"
#include "sim/stream.hh"
#include "support/units.hh"

namespace capu
{

enum class CopyDir
{
    DeviceToHost,
    HostToDevice,
};

class PcieLink
{
  public:
    /**
     * @param bandwidth Effective bytes/s per direction.
     * @param latency Fixed setup cost per transfer.
     */
    PcieLink(double bandwidth, Tick latency);

    /**
     * Pure nominal transfer duration for `bytes` (latency +
     * size/bandwidth). Planners use this as SwapTime; injected bandwidth
     * degradation deliberately does NOT show up here — drift between the
     * nominal plan and degraded reality is what the policy's feedback and
     * re-measurement machinery reacts to.
     */
    Tick transferTime(std::uint64_t bytes) const;

    /** Transfer duration under the fault engine's bandwidth factor. */
    Tick degradedTransferTime(std::uint64_t bytes, Tick start) const;

    /**
     * Enqueue a must-succeed transfer; returns its completion tick.
     * Under an attached fault engine, failed attempts occupy the lane and
     * retry with backoff; when the retry budget runs out the final attempt
     * is forced through (counted in FaultStats::swapForced) — data that
     * must move eventually does.
     * @param ready Earliest start (data-production dependency).
     * @param label,tensor The transfer's trace label and tensor id.
     */
    Tick transfer(CopyDir dir, std::uint64_t bytes, Tick ready,
                  obs::Label label, std::int64_t tensor = -1);

    /**
     * Like transfer(), but gives up after the retry budget: returns
     * nullopt so the caller can degrade (e.g. swap-out falls back to
     * recompute-eviction). Identical to transfer() without faults.
     */
    std::optional<Tick> tryTransfer(CopyDir dir, std::uint64_t bytes,
                                    Tick ready, obs::Label label,
                                    std::int64_t tensor = -1);

    /** Route both lanes into `tracer` (D2H/H2D tracks); nullptr detaches. */
    void attachTracer(obs::Tracer *tracer);

    /** Consult `engine` for degradation/failure; nullptr detaches. */
    void attachFaults(faults::FaultEngine *engine);

    /** Tick when the given direction's lane drains. */
    Tick laneBusyUntil(CopyDir dir) const;

    /** Start tick of the most recent transfer in the given direction. */
    Tick lastStart(CopyDir dir) const;

    Stream &lane(CopyDir dir);
    const Stream &lane(CopyDir dir) const;

    /** capureplay: shift both lanes by one synthesized iteration. */
    void
    replayShift(Tick dt, Tick d2h_busy, Tick h2d_busy)
    {
        d2h_.replayShift(dt, d2h_busy);
        h2d_.replayShift(dt, h2d_busy);
    }

    double bandwidth() const { return bandwidth_; }

    void reset();

  private:
    bool faultsOn() const { return faults_ && faults_->enabled(); }

    double bandwidth_;
    Tick latency_;
    Stream d2h_;
    Stream h2d_;
    faults::FaultEngine *faults_ = nullptr;
};

} // namespace capu

#endif // CAPU_SIM_PCIE_LINK_HH
