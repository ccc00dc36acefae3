#include "analysis/plan_checker.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <unordered_set>

#include "stats/report.hh"
#include "support/strfmt.hh"

namespace capu
{

const char *
lintSeverityName(LintSeverity severity)
{
    return severity == LintSeverity::Error ? "error" : "warning";
}

void
LintReport::add(LintSeverity severity, std::string rule, TensorId tensor,
                int access, std::string message)
{
    diags.push_back(LintDiagnostic{severity, std::move(rule), tensor, access,
                                   std::move(message)});
}

void
LintReport::append(LintReport &&other)
{
    for (LintDiagnostic &d : other.diags)
        diags.push_back(std::move(d));
}

std::size_t
LintReport::errorCount() const
{
    return static_cast<std::size_t>(
        std::count_if(diags.begin(), diags.end(), [](const auto &d) {
            return d.severity == LintSeverity::Error;
        }));
}

std::size_t
LintReport::warningCount() const
{
    return diags.size() - errorCount();
}

std::string
LintReport::summary() const
{
    return fmt("plan lint: {} error(s), {} warning(s)", errorCount(),
               warningCount());
}

/**
 * One plan item placed on the measured timeline: its trace anchors
 * resolved and the ticks its GPU chunk is released and re-acquired.
 * Items whose anchors cannot be placed carry an error diagnostic and are
 * excluded from the deeper rules.
 */
struct PlanChecker::Placement
{
    const PlannedEviction *item = nullptr;
    Tick evictTime = 0;   ///< trace time of the evicted-access
    Tick backTime = 0;    ///< trace time of the back-access
    Tick swapTime = 0;    ///< one-way PCIe time of the tensor (swaps)
    Tick freedAt = 0;     ///< GPU chunk released
    Tick backAllocAt = 0; ///< GPU chunk re-acquired
    const AccessRecord *trigger = nullptr; ///< resolved in-trigger, if any
};

PlanChecker::PlanChecker(const Graph &graph, const AccessTracker &tracker,
                         PlanCheckerOptions opts)
    : graph_(graph), tracker_(tracker), opts_(opts)
{
}

namespace
{

/** Record of `tensor` with the given 1-based access index, or nullptr. */
const AccessRecord *
findAccess(const AccessTracker &tracker, TensorId tensor, int access_index)
{
    for (const AccessRecord &rec : tracker.accessesOf(tensor)) {
        if (rec.accessIndex == access_index)
            return &rec;
    }
    return nullptr;
}

/** Maximum of a delta sweep and the tick it is first attained. */
struct SweepPeak
{
    std::uint64_t bytes = 0;
    Tick at = 0;
};

SweepPeak
sweepPeak(const std::map<Tick, std::int64_t> &deltas)
{
    std::int64_t usage = 0;
    std::int64_t peak = 0;
    SweepPeak out;
    for (const auto &[t, d] : deltas) {
        usage += d;
        if (usage > peak) {
            peak = usage;
            out.at = t;
        }
    }
    out.bytes = static_cast<std::uint64_t>(peak);
    return out;
}

} // namespace

bool
PlanChecker::place(const PlannedEviction &item, const BytesFn &tensor_bytes,
                   const SwapTimeFn &swap_time, Placement &p,
                   LintReport &report) const
{
    // Rule: missing-access — both anchors must exist in the trace.
    const AccessRecord *evict_rec =
        findAccess(tracker_, item.tensor, item.evictAfterAccess);
    const AccessRecord *back_rec =
        findAccess(tracker_, item.tensor, item.backAccess);
    if (evict_rec == nullptr || back_rec == nullptr) {
        int missing = evict_rec == nullptr ? item.evictAfterAccess
                                           : item.backAccess;
        report.add(LintSeverity::Error, "missing-access", item.tensor,
                   missing,
                   fmt("tensor {} access #{} is not in the measured trace",
                       item.tensor, missing));
        return false;
    }

    // Rule: lifetime-empty-interval — regeneration must follow the
    // eviction, or the tensor never leaves the device.
    if (item.backAccess <= item.evictAfterAccess) {
        report.add(LintSeverity::Error, "lifetime-empty-interval",
                   item.tensor, item.backAccess,
                   fmt("back-access #{} does not follow evicted-access #{}",
                       item.backAccess, item.evictAfterAccess));
        return false;
    }
    // Indices ordered but times inverted: the stall-corrected timeline
    // ran backwards locally (measurement artifact). The interval is
    // meaningless for FT math, so a planner that *chose* the pair for its
    // interval is suspect — but execution order is still sound, so this
    // is advisory.
    if (back_rec->time < evict_rec->time) {
        report.add(LintSeverity::Warning, "time-inversion", item.tensor,
                   item.backAccess,
                   fmt("back-access #{} is timestamped {} before "
                       "evicted-access #{} — corrected timeline inverted",
                       item.backAccess,
                       formatTicks(evict_rec->time - back_rec->time),
                       item.evictAfterAccess));
    }

    p.item = &item;
    p.evictTime = evict_rec->time;
    p.backTime = back_rec->time;
    if (item.mode == RegenChoice::Swap) {
        p.swapTime = swap_time(tensor_bytes(item.tensor));
        p.freedAt = p.evictTime + p.swapTime;
        p.backAllocAt =
            p.backTime > p.swapTime ? p.backTime - p.swapTime : 0;
        if (item.triggerTensor != kInvalidTensor) {
            p.trigger = findAccess(tracker_, item.triggerTensor,
                                   item.triggerAccess);
            // A prefetch fired inside the window allocates early.
            if (p.trigger != nullptr && p.trigger->time > p.freedAt &&
                p.trigger->time < p.backAllocAt)
                p.backAllocAt = p.trigger->time;
        }
    } else {
        p.freedAt = p.evictTime;
        p.backAllocAt = p.backTime;
    }

    // Rule: lifetime-use-after-free — no recorded access of the tensor
    // may fall strictly between eviction and regeneration: it would read
    // a hole (recompute) or stall on a transfer nothing scheduled (swap).
    // The PolicyMaker picks consecutive access pairs, so any hit here is
    // a planner bug, the class of silent corruption DTR avoids by
    // construction.
    for (const AccessRecord &rec : tracker_.accessesOf(item.tensor)) {
        if (rec.accessIndex > item.evictAfterAccess &&
            rec.accessIndex < item.backAccess) {
            report.add(LintSeverity::Error, "lifetime-use-after-free",
                       item.tensor, rec.accessIndex,
                       fmt("access #{} of tensor {} falls inside the planned "
                           "eviction interval (#{}, #{})",
                           rec.accessIndex, item.tensor,
                           item.evictAfterAccess, item.backAccess));
        }
    }
    return true;
}

void
PlanChecker::checkPrefetch(const Placement &p, LintReport &report) const
{
    const PlannedEviction &item = *p.item;
    if (item.mode != RegenChoice::Swap)
        return;

    // Feasibility under the cost model, Eq. 1:
    //   FT = SwapInStart - SwapOutEnd
    //      = (back - SwapTime) - (evict + SwapTime).
    std::int64_t ft = static_cast<std::int64_t>(p.backTime) -
                      static_cast<std::int64_t>(p.evictTime) -
                      2 * static_cast<std::int64_t>(p.swapTime);
    if (ft < 0) {
        Tick exposure = static_cast<Tick>(-ft);
        if (item.estimatedOverhead < exposure) {
            // Claimed (near-)hidden but intrinsically exposed: the round
            // trip does not fit the reuse interval, so shifting the
            // in-trigger earlier — all the feedback loop can do — can
            // never remove the stall.
            report.add(LintSeverity::Error, "negative-ft-prefetch",
                       item.tensor, item.backAccess,
                       fmt("FT = -{} but only {} overhead budgeted; the "
                           "feedback loop cannot fix an exposed round trip",
                           formatTicks(exposure),
                           formatTicks(item.estimatedOverhead)));
        } else {
            report.add(LintSeverity::Warning, "exposed-swap", item.tensor,
                       item.backAccess,
                       fmt("swap of tensor {} is exposed by {} (budgeted)",
                           item.tensor, formatTicks(exposure)));
        }
    }

    // In-trigger placement (§4.4).
    if (item.triggerTensor == kInvalidTensor) {
        report.add(LintSeverity::Warning, "prefetch-no-trigger", item.tensor,
                   item.backAccess,
                   fmt("swap of tensor {} has no in-trigger; the back-access "
                       "will fetch on demand",
                       item.tensor));
        return;
    }
    if (p.trigger == nullptr) {
        report.add(LintSeverity::Error, "prefetch-missing-trigger",
                   item.triggerTensor, item.triggerAccess,
                   fmt("in-trigger {}:{} for tensor {} is not in the trace "
                       "(the prefetch never fires)",
                       item.triggerTensor, item.triggerAccess, item.tensor));
        return;
    }
    // A mis-placed trigger is not unsound — the back-access degrades to
    // an on-demand fetch (full SwapTime exposed) — so these are advisory;
    // only a dangling trigger reference is plan corruption.
    Tick fires = p.trigger->time;
    if (fires >= p.backTime) {
        report.add(LintSeverity::Warning, "prefetch-late-trigger",
                   item.tensor, item.backAccess,
                   fmt("in-trigger {}:{} fires at {} — not before the "
                       "back-access at {}; the fetch degrades to on-demand",
                       item.triggerTensor, item.triggerAccess,
                       formatTicks(fires), formatTicks(p.backTime)));
    }
    if (fires <= p.evictTime) {
        // prefetchAsync is a no-op while the tensor is still resident: a
        // trigger at/before the eviction silently never fetches.
        report.add(LintSeverity::Warning, "prefetch-dead-trigger",
                   item.tensor, item.evictAfterAccess,
                   fmt("in-trigger {}:{} fires at {}, at or before the "
                       "eviction at {} — the prefetch is a no-op",
                       item.triggerTensor, item.triggerAccess,
                       formatTicks(fires), formatTicks(p.evictTime)));
    }
}

void
PlanChecker::checkRecompute(const Placement &p, const PlacementMap &placed,
                            LintReport &report) const
{
    const PlannedEviction &item = *p.item;
    if (item.mode != RegenChoice::Recompute)
        return;
    Tick replay_at = p.backTime;

    // Is `id` evicted by the plan across time `at`?
    auto evicted_across = [&](TensorId id, Tick at) -> const Placement * {
        auto it = placed.find(id);
        if (it == placed.end())
            return nullptr;
        const Placement *v = it->second;
        return (v->evictTime < at && at < v->backTime) ? v : nullptr;
    };

    // Depth-first over the replay closure: a tensor is available at
    // replay time if it is a weight, alive in the trace, or host-backed by
    // a swap item; anything else must itself be replayed through a
    // recomputable producer. Mirrors the executor's regeneration (§4.4
    // "recomputation sources") but proves it statically against the
    // trace.
    std::unordered_set<TensorId> on_path;   // DFS path (cycle check)
    std::unordered_set<TensorId> satisfied; // proven available
    std::unordered_set<OpId> replay_ops;    // unique ops replayed
    bool budget_blown = false;

    std::function<bool(TensorId)> replay; // regenerate t via producer
    std::function<bool(TensorId)> need;   // make t available

    replay = [&](TensorId t) -> bool {
        OpId prod = graph_.tensor(t).producer;
        if (prod == kInvalidOp || !graph_.op(prod).recomputable) {
            report.add(LintSeverity::Error, "lifetime-source-window",
                       item.tensor, item.backAccess,
                       fmt("replay of tensor {} needs tensor {}, which is "
                           "neither resident nor host-backed at replay time "
                           "{} and cannot be regenerated",
                           item.tensor, t, formatTicks(replay_at)));
            return false;
        }
        if (on_path.count(t) != 0u) {
            report.add(LintSeverity::Error, "lifetime-lineage-cycle",
                       item.tensor, item.backAccess,
                       fmt("replay of tensor {} revisits tensor {} — "
                           "lineage cycle",
                           item.tensor, t));
            return false;
        }
        on_path.insert(t);
        replay_ops.insert(prod);
        if (replay_ops.size() > opts_.maxRecomputeChain) {
            // Soundness is unaffected (runtime replay is unbounded and
            // collective recomputation memoizes intermediates); a chain
            // this deep is an MSPS red flag, not a crash.
            if (!budget_blown) {
                budget_blown = true;
                report.add(LintSeverity::Warning,
                           "recompute-chain-too-long", item.tensor,
                           item.backAccess,
                           fmt("replay of tensor {} chains through more "
                               "than {} ops",
                               item.tensor, opts_.maxRecomputeChain));
            }
            on_path.erase(t);
            return false;
        }
        for (TensorId in : graph_.op(prod).inputs) {
            if (!need(in)) {
                on_path.erase(t);
                return false;
            }
        }
        on_path.erase(t);
        satisfied.insert(t);
        return true;
    };

    need = [&](TensorId t) -> bool {
        if (satisfied.count(t) != 0u)
            return true;
        if (graph_.tensor(t).kind == TensorKind::Weight)
            return true; // persistent
        if (const Placement *ev = evicted_across(t, replay_at)) {
            if (ev->item->mode == RegenChoice::Swap)
                return true; // host copy exists; on-demand swap-in
            return replay(t); // dropped: chain through its producer
        }
        const auto &recs = tracker_.accessesOf(t);
        bool alive = !recs.empty() && recs.front().time <= replay_at &&
                     recs.back().time >= replay_at;
        if (alive)
            return true;
        return replay(t); // dead by refcount: must be regenerated too
    };

    replay(item.tensor);
}

void
PlanChecker::checkMemory(const Plan &plan, const PlacementMap &placed,
                         const BytesFn &tensor_bytes,
                         LintReport &report) const
{
    // Replay the plan over the hypothetical (infinite-memory) usage curve:
    // each non-weight tensor occupies [first, last] access, minus its
    // placement's window [freedAt, backAllocAt). Same sweep convention as
    // AccessTracker::peakWindow so numbers line up with the planner. A
    // swap also occupies pinned host staging from swap-out start until
    // the swap-in completes at the back-access.
    std::map<Tick, std::int64_t> gpu_deltas, base_deltas, host_deltas;
    for (const TensorDesc &t : graph_.tensors()) {
        if (t.kind == TensorKind::Weight)
            continue;
        const auto &recs = tracker_.accessesOf(t.id);
        if (recs.empty())
            continue;
        std::uint64_t bytes = tensor_bytes(t.id);
        if (bytes == 0)
            continue;
        auto b = static_cast<std::int64_t>(bytes);
        gpu_deltas[recs.front().time] += b;
        gpu_deltas[recs.back().time + 1] -= b;
        base_deltas[recs.front().time] += b;
        base_deltas[recs.back().time + 1] -= b;

        auto it = placed.find(t.id);
        if (it == placed.end())
            continue;
        const Placement &p = *it->second;
        if (p.freedAt < p.backAllocAt) {
            gpu_deltas[p.freedAt] -= b;
            gpu_deltas[p.backAllocAt] += b;
        }
        if (p.item->mode == RegenChoice::Swap) {
            host_deltas[p.evictTime] += b;
            host_deltas[p.backTime + 1] -= b;
        }
    }

    std::uint64_t weight_bytes = graph_.bytesOfKind(TensorKind::Weight);
    SweepPeak peak = sweepPeak(gpu_deltas);
    report.peakBound = peak.bytes + weight_bytes;
    report.peakAt = peak.at;

    if (opts_.gpuCapacity > 0) {
        std::uint64_t activation_budget =
            opts_.gpuCapacity > weight_bytes ? opts_.gpuCapacity -
                                                   weight_bytes
                                             : 0;
        if (peak.bytes > activation_budget + opts_.capacitySlack) {
            // An overshoot alone is survivable: passive mode absorbs it
            // with on-demand evictions and the refinement loop grows the
            // saving target from that traffic. What re-planning can never
            // fix is a plan that does not *deliver* the savings it
            // claims — eviction windows that miss the peak flatten
            // nothing, so the claimed bytes are fake.
            std::uint64_t hyp_peak = sweepPeak(base_deltas).bytes;
            std::uint64_t achieved =
                hyp_peak > peak.bytes ? hyp_peak - peak.bytes : 0;
            std::uint64_t claimed =
                std::min(plan.plannedBytes, plan.targetBytes);
            bool delivered = achieved + opts_.capacitySlack >= claimed;
            report.add(
                delivered ? LintSeverity::Warning : LintSeverity::Error,
                "memory-overcommit", kInvalidTensor, 0,
                fmt("replayed curve peaks at {} (at {}) against {} of "
                    "activation budget ({} capacity - {} weights); plan "
                    "claims {} of savings, delivers {}",
                    formatBytes(peak.bytes), formatTicks(peak.at),
                    formatBytes(activation_budget),
                    formatBytes(opts_.gpuCapacity), formatBytes(weight_bytes),
                    formatBytes(claimed), formatBytes(achieved)));
        }
    }
    if (opts_.hostCapacity > 0) {
        std::uint64_t host_peak = sweepPeak(host_deltas).bytes;
        if (host_peak > opts_.hostCapacity) {
            report.add(LintSeverity::Error, "host-overcommit",
                       kInvalidTensor, 0,
                       fmt("host staging peaks at {} against {} of HostPool "
                           "capacity",
                           formatBytes(host_peak),
                           formatBytes(opts_.hostCapacity)));
        }
    }
}

LintReport
PlanChecker::check(const Plan &plan, const BytesFn &tensor_bytes,
                   const SwapTimeFn &swap_time) const
{
    LintReport report;
    // Per-item rules, in plan order. The lineage walk of one item reads
    // every other placement, so it runs once all items are placed.
    std::vector<Placement> placements;
    placements.reserve(plan.items.size());
    std::unordered_map<TensorId, std::size_t> first_item;
    for (std::size_t i = 0; i < plan.items.size(); ++i) {
        const PlannedEviction &item = plan.items[i];
        // Rule: duplicate-item — one eviction/prefetch per tensor per
        // plan (a double evict frees a dead handle; a double prefetch
        // races).
        auto [it, inserted] = first_item.emplace(item.tensor, i);
        if (!inserted) {
            report.add(LintSeverity::Error, "duplicate-item", item.tensor,
                       item.evictAfterAccess,
                       fmt("tensor {} planned by items #{} and #{}",
                           item.tensor, it->second, i));
            continue;
        }
        Placement p;
        if (!place(item, tensor_bytes, swap_time, p, report))
            continue;
        checkPrefetch(p, report);
        placements.push_back(p);
    }

    PlacementMap placed;
    for (const Placement &p : placements)
        placed.emplace(p.item->tensor, &p);
    for (const Placement &p : placements)
        checkRecompute(p, placed, report);
    checkMemory(plan, placed, tensor_bytes, report);
    return report;
}

void
printLintReport(std::ostream &os, const LintReport &report,
                const Graph &graph)
{
    std::vector<DiagnosticRow> rows;
    rows.reserve(report.diags.size());
    for (const LintDiagnostic &d : report.diags) {
        DiagnosticRow row;
        row.severity = lintSeverityName(d.severity);
        row.rule = d.rule;
        row.subject = d.tensor == kInvalidTensor
                          ? "<plan>"
                          : graph.tensor(d.tensor).name;
        row.location =
            d.accessIndex > 0 ? fmt("access {}", d.accessIndex) : "";
        row.message = d.message;
        rows.push_back(std::move(row));
    }
    printDiagnostics(os, rows);
    os << report.summary() << "\n";
}

} // namespace capu
