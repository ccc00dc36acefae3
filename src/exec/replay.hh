/**
 * @file
 * capureplay — steady-state iteration replay.
 *
 * Training iterations converge to a fixed point once the memory policy's
 * plan stabilizes: every subsequent iteration performs the same accesses,
 * transfers and allocations at the same iteration-relative ticks. The
 * ReplayEngine detects that fixed point with a deterministic *iteration
 * digest* — a 64-bit hash over the access stream, the iteration stats, the
 * end-relative resource horizons, the allocator layout, pending deferred
 * frees and weight-version bumps. The digest covers the simulation only:
 * observability output never moves the fixed point. When two consecutive
 * executed iterations produce identical digests (and the policy reports
 * stableForReplay()), the session stops executing and *synthesizes* the
 * remaining iterations from the cached iteration delta: clocks, stream
 * horizons and pending frees shift uniformly by the template duration,
 * weight versions bump, and observability output (metrics deltas, trace
 * events with shifted ticks) is re-emitted — bit-identical results at a
 * tiny fraction of the cost.
 *
 * Replay is trust-but-verify: every `auditInterval` synthesized iterations
 * one *audit iteration* executes for real and must reproduce the template
 * digest exactly; a mismatch falls back to full execution (bounded by
 * maxAuditMismatches before replay disarms for the rest of the run).
 * Replay is never armed while a fault plan is active, and an unstable
 * policy (pending plan rebuild, trigger shift, re-measurement) pauses
 * synthesis until the digest re-converges.
 *
 * Dynamic workloads (capudrift): digests, templates and steady/observing
 * state are all tracked *per shape class* — a recurring class of a dynamic
 * stream reaches its own fixed point and synthesizes even while other
 * classes are still measuring. Classes differ in the pending frees they
 * leave behind, and the next iteration drains them (its allocator
 * counters depend on which class ran before it). A steady class therefore
 * keeps one template per machine state it was executed from, synthesizes
 * only from a state it has a template for, and leaves the pending frees
 * exactly as an executed iteration would. Audit mismatches count globally
 * and disarm the whole engine.
 */

#ifndef CAPU_EXEC_REPLAY_HH
#define CAPU_EXEC_REPLAY_HH

#include <compare>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "exec/executor.hh"

namespace capu
{

class ReplayEngine
{
  public:
    /**
     * @param exec The session's executor; options come from
     *             exec.config().replay. The engine stays Disabled unless
     *             exec.replayArmed().
     * @param policy The session's policy (stability veto); may be nullptr.
     */
    ReplayEngine(Executor &exec, MemoryPolicy *policy);

    /**
     * Rebinding copy (capufork): duplicate `other`'s replay state —
     * digests, steady-state templates, audit cadence, marks, summary —
     * against a forked executor/policy pair, so a fork keeps synthesizing
     * from the very iteration the original would have.
     */
    ReplayEngine(const ReplayEngine &other, Executor &exec,
                 MemoryPolicy *policy);

    /**
     * Whether the next iteration may be synthesized. False while
     * observing, when the policy is unstable, and when an audit iteration
     * is due (the caller must then execute for real and observe()).
     */
    bool canReplay();

    /** Feed the stats of an iteration that actually executed. */
    void observe(const IterationStats &stats);

    /** An iteration aborted (OOM retry): discard steady state, re-observe. */
    void noteAbort();

    /**
     * Synthesize the next iteration from the steady-state template: shift
     * the machine, bump weights, re-emit observability. Only valid when
     * canReplay() just returned true.
     */
    IterationStats synthesize();

    const ReplaySummary &summary() const { return summary_; }

  private:
    enum class State
    {
        Observing, ///< hashing executed iterations, hunting the fixed point
        Steady,    ///< template cached; synthesizing
    };

    /** Absolute snapshots diffed across one iteration. */
    struct Marks
    {
        Tick computeBusy = 0;
        Tick d2hBusy = 0;
        Tick h2dBusy = 0;
        std::uint64_t tracerMark = 0;
        /** Parallel to weightIds_. */
        std::vector<int> weightVersions;
        /** Copied only while metrics are on. */
        obs::MetricsRegistry::Values metrics;
    };

    /** The machine state an iteration hands to the next one. */
    struct MachineState
    {
        /**
         * Resource horizons relative to the iteration end, the arena
         * chunks not awaiting a free, host pool occupancy.
         */
        std::uint64_t resident = 0;
        /** Pending frees: maturity relative to the end, chunk, size. */
        std::uint64_t pending = 0;

        auto operator<=>(const MachineState &) const = default;
    };

    /** Everything one iteration changed — the replayable template. */
    struct Delta
    {
        IterationStats stats;
        ReplayShift shift;
        std::vector<std::pair<TensorId, int>> weightBumps;
        /** Re-emitted, never digested; filled only while metrics are on. */
        obs::MetricsRegistry::Values metrics;
        std::vector<obs::TraceEvent> events;
        MachineState start;
        MachineState end;
        /** Pending frees left at the end, maturities relative to it. */
        std::vector<PendingFree> endPending;
        std::uint64_t digest = 0;
    };

    /**
     * Per-shape-class replay state. Static graphs use exactly class 0, so
     * a single Track reproduces the pre-capudrift behavior bit for bit.
     * Marks stay global (they snapshot the one machine), but digests,
     * fixed-point hunting and audit cadence are per class.
     */
    struct Track
    {
        State state = State::Observing;
        /** While Steady, the fixed point's digest. */
        std::uint64_t lastDigest = 0;
        bool haveLastDigest = false;
        /** While Steady: templates keyed by the state they started from. */
        std::map<MachineState, Delta> templates;
        int replayedSinceAudit = 0;
        bool auditPending = false;
    };

    void captureMarks(Marks &into) const;
    Delta captureDelta(const IterationStats &stats) const;
    /** The machine state now, for an iteration that ended at `end`. */
    MachineState machineStateOf(Tick end,
                                std::vector<PendingFree> *pending) const;
    std::uint64_t digestOf(const Delta &delta) const;
    void emitSynthesized(const IterationStats &st, const Delta &tpl);

    Executor &exec_;
    MemoryPolicy *policy_;
    ReplayOptions opts_;
    bool armed_ = false;
    /** Too many audit mismatches: the whole engine disarms. */
    bool disabled_ = false;
    std::vector<TensorId> weightIds_;

    bool haveMarks_ = false;
    Marks marks_;
    /** State the last iteration (executed or synthesized) left. */
    MachineState machineState_;
    std::map<std::uint64_t, Track> tracks_;
    ReplaySummary summary_;
};

} // namespace capu

#endif // CAPU_EXEC_REPLAY_HH
