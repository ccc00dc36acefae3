/**
 * @file
 * capuverify: happens-before race detection over plans and traces.
 *
 * A guided-execution plan implies a concurrent execution: kernels on the
 * FIFO compute stream, swap-outs and prefetches on the two PCIe lanes,
 * chunk frees deferred to transfer completion. The PlanChecker (PR 1)
 * proves per-tensor plan invariants; this engine proves the *cross-stream*
 * property: every pair of conflicting operations on a tensor's device
 * buffer (or its pinned host copy) is ordered by the runtime's guarantees.
 *
 * Pipeline:
 *   1. Build an event list — from a plan + measured trace without
 *      executing it (static mode, buildPlanEventGraph), or from a
 *      capuscope trace's real records (dynamic mode, buildTraceEventGraph).
 *   2. Enumerate the ordering edges the Executor/Stream/PcieLink enforce
 *      (exec/ordering.hh — the single source of truth for the rules).
 *   3. Assign vector clocks: one clock component per totally-ordered
 *      timeline (compute, D2H, H2D) plus one per deferred host action
 *      (frees and allocs are ordered only by their causes, so each is its
 *      own timeline). Clocks propagate along edges in topological order.
 *   4. Check: unordered conflicting pairs (`hb-race`), frees ordered
 *      before a use of the same buffer (`hb-use-after-free`), directional
 *      obligations — the copy that fills a buffer must be sequenced
 *      before its first read (`hb-unsequenced-prefetch` /
 *      `hb-unsequenced-recompute`), the evicting kernel before the D2H
 *      copy (`hb-copy-before-retire`) — and cyclic event graphs
 *      (`hb-cycle`).
 *
 * Dynamic mode additionally cross-checks the simulator itself: every
 * enumerated edge must be respected by the trace's real timestamps
 * (`hb-timestamp-violation`), so a sequencing bug in the executor shows up
 * as a contradiction between the rules it claims and the times it
 * produced. The timestamp check is dynamic-only: static mode derives
 * transfer times over the *measured* (no-eviction) timeline, where an
 * exposed swap legitimately completes after its back access's recorded
 * tick.
 *
 * The OrderingRules knockouts exist for tools/capumutate.cc: disabling one
 * guarantee (or surgically reordering events) must flip a clean plan to a
 * detected one — the mutation corpus gates on that detection power.
 */

#ifndef CAPU_ANALYSIS_HAPPENS_BEFORE_HH
#define CAPU_ANALYSIS_HAPPENS_BEFORE_HH

#include <cstdint>
#include <vector>

#include "analysis/plan_checker.hh"
#include "core/access_tracker.hh"
#include "core/policy_maker.hh"
#include "exec/ordering.hh"
#include "graph/graph.hh"
#include "obs/event_adapter.hh"

namespace capu
{

/** An event list plus the ordering edges enumerated for it. */
struct HbAnalysis
{
    std::vector<hb::HbEvent> events;
    std::vector<hb::HbEdge> edges;
};

/**
 * Static mode: derive the event graph a plan implies over the measured
 * access trace, mirroring the executor's degradations (a dead or late
 * in-trigger falls back to an on-demand fetch at the back access; an
 * access inside the eviction hole regenerates on demand) so that clean
 * plans are race-free by construction and corrupted ones are not.
 * Structurally invalid items (anchors missing from the trace) are skipped
 * here — the PlanChecker reports those.
 */
HbAnalysis buildPlanEventGraph(const Plan &plan,
                               const AccessTracker &tracker,
                               const PlanChecker::BytesFn &tensor_bytes,
                               const PlanChecker::SwapTimeFn &swap_time,
                               const hb::OrderingRules &rules = {});

/**
 * Dynamic mode: lift a capuscope timeline (obs::extractTimeline) into the
 * same event model. Only tensors that move (transfers or recompute
 * replays) contribute events; buffer incarnations are tracked across
 * iterations so repeated swap cycles do not alias.
 */
HbAnalysis buildTraceEventGraph(const std::vector<obs::TimelineRecord> &recs,
                                const hb::OrderingRules &rules = {});

/** Vector clocks for one analysis; chain = timeline index. */
struct HbClocks
{
    bool acyclic = true;
    std::uint32_t cycleEvent = 0; ///< an event on the cycle (if !acyclic)
    std::size_t chainCount = 0;
    /** Per event: (chain, 1-based position on that chain). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pos;
    /** Per event: clock joined over predecessors, own position included. */
    std::vector<std::vector<std::uint32_t>> clock;

    /** Strict happens-before: a's position is visible in b's clock. */
    bool ordered(std::uint32_t a, std::uint32_t b) const;
};

HbClocks assignVectorClocks(const HbAnalysis &analysis);

/**
 * Race scan + directional obligations over an event graph (static or
 * dynamic). `graph` is used for tensor names in messages; pass nullptr
 * when unavailable.
 */
LintReport checkHappensBefore(const HbAnalysis &analysis,
                              const Graph *graph = nullptr);

/**
 * Dynamic-mode cross-check: every enumerated edge must be respected by
 * the events' observed timestamps (from.end <= to.start).
 */
LintReport checkTimestamps(const HbAnalysis &analysis,
                           const Graph *graph = nullptr);

} // namespace capu

#endif // CAPU_ANALYSIS_HAPPENS_BEFORE_HH
