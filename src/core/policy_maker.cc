#include "core/policy_maker.hh"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "support/logging.hh"
#include "support/strfmt.hh"

namespace capu
{

const PlannedEviction *
Plan::find(TensorId id) const
{
    for (const auto &item : items) {
        if (item.tensor == id)
            return &item;
    }
    return nullptr;
}

std::string
Plan::summary() const
{
    return fmt("plan: {} items ({} swap, {} recompute), {} planned of {} "
               "target",
               items.size(), swapCount, recomputeCount,
               formatBytes(plannedBytes), formatBytes(targetBytes));
}

PolicyMaker::PolicyMaker(const Graph &graph, const AccessTracker &tracker,
                         PolicyMakerOptions opts)
    : graph_(graph), tracker_(tracker), opts_(opts)
{
}

std::vector<PolicyMaker::Candidate>
PolicyMaker::gatherCandidates(Plan &plan, const BytesFn &tensor_bytes,
                              const SwapTimeFn &swap_time,
                              std::uint64_t gpu_capacity) const
{
    // Peak window of the hypothetical (infinite-memory) usage curve; the
    // curve covers non-weight tensors, so compare against the capacity
    // left after the persistent weights.
    std::uint64_t weight_bytes = graph_.bytesOfKind(TensorKind::Weight);
    std::uint64_t threshold =
        gpu_capacity > weight_bytes ? gpu_capacity - weight_bytes : 0;
    auto curve_bytes = [&](TensorId id) -> std::uint64_t {
        return graph_.tensor(id).kind == TensorKind::Weight
                   ? 0
                   : tensor_bytes(id);
    };
    plan.peak = tracker_.peakWindow(curve_bytes, threshold);
    const PeakWindow &peak = plan.peak;

    std::vector<Candidate> cands;
    cands.reserve(graph_.tensors().size());
    for (const auto &t : graph_.tensors()) {
        if (t.kind != TensorKind::FeatureMap)
            continue;
        std::uint64_t bytes = tensor_bytes(t.id);
        if (bytes < opts_.minTensorBytes)
            continue;
        const auto &recs = tracker_.accessesOf(t.id);
        if (recs.size() < 2)
            continue;
        // Candidate only if alive somewhere inside the peak window.
        if (peak.valid &&
            (recs.back().time < peak.lo || recs.front().time > peak.hi))
            continue;

        Candidate c;
        c.tensor = t.id;
        c.bytes = bytes;
        c.swapTime = swap_time(bytes);

        Tick best_interval = 0;
        bool have_pair = false;
        for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
            // The stall-corrected timeline can locally run backwards when
            // passive mode stalls faster than the clock advances; an
            // inverted pair is a measurement artifact, not a reuse gap
            // (unsigned subtraction would turn it into a huge "interval"
            // and make the pair irresistible — caught by capulint's
            // bad-interval rule).
            if (recs[i + 1].time < recs[i].time)
                continue;
            Tick interval = recs[i + 1].time - recs[i].time;
            if (interval >= best_interval) {
                best_interval = interval;
                have_pair = true;
                c.evictAfterAccess = recs[i].accessIndex;
                c.backAccess = recs[i + 1].accessIndex;
                c.evictTime = recs[i].time;
                c.backTime = recs[i + 1].time;
            }
        }
        if (!have_pair)
            continue;
        // FT = SwapInStart - SwapOutEnd
        //    = (back - SwapTime) - (evict + SwapTime)       (Eq. 1)
        // Clamped at zero; the negative part ("exposure") is recomputed at
        // selection time from the pair interval and the round-trip time.
        std::int64_t ft = static_cast<std::int64_t>(c.backTime) -
                          static_cast<std::int64_t>(c.evictTime) -
                          static_cast<std::int64_t>(2 * c.swapTime);
        c.freeTime = static_cast<Tick>(std::max<std::int64_t>(ft, 0));
        c.rpTime = 0;
        c.extTime = 0;
        cands.push_back(std::move(c));
    }

    if (opts_.enableRecompute) {
        // One candidate-set for all lineage walks, not one per call.
        std::unordered_set<TensorId> cand_set;
        cand_set.reserve(cands.size());
        for (const auto &c : cands)
            cand_set.insert(c.tensor);
        for (auto &c : cands)
            initRecomputeState(c, cand_set);
    }
    return cands;
}

void
PolicyMaker::initRecomputeState(
    Candidate &cand, const std::unordered_set<TensorId> &cand_set) const
{
    std::unordered_set<OpId> visited_ops;
    std::unordered_set<TensorId> visited_tensors;
    bool feasible = true;
    Tick rp_time = 0;
    std::vector<TensorId> srcs;
    srcs.reserve(8);

    std::vector<TensorId> stack;
    stack.reserve(16);
    auto expand_op = [&](OpId op_id) {
        visited_ops.insert(op_id);
        rp_time += tracker_.opDuration(op_id);
        for (TensorId in : graph_.op(op_id).inputs)
            stack.push_back(in);
    };

    OpId root = graph_.tensor(cand.tensor).producer;
    if (root == kInvalidOp || !graph_.op(root).recomputable ||
        !tracker_.hasOpDuration(root)) {
        cand.rpTime = 0;
        cand.srcs.clear();
        cand.extTime = 0;
        // Mark infeasible with a sentinel: empty srcs + zero rpTime means
        // "never recomputable" and is filtered at selection time.
        return;
    }
    expand_op(root);

    while (!stack.empty() && feasible) {
        TensorId x = stack.back();
        stack.pop_back();
        if (visited_tensors.count(x))
            continue;
        visited_tensors.insert(x);

        const TensorDesc &t = graph_.tensor(x);
        if (t.kind == TensorKind::Weight) {
            srcs.push_back(x);
            continue;
        }
        const auto &recs = tracker_.accessesOf(x);
        bool alive_at_back =
            !recs.empty() && recs.back().time > cand.backTime;
        if (alive_at_back || cand_set.count(x)) {
            // Alive when the recompute fires, or an eviction candidate
            // (assumed in GPU per §4.4 — Algorithm 2 repairs this later).
            srcs.push_back(x);
            continue;
        }
        OpId prod = t.producer;
        if (prod == kInvalidOp || !graph_.op(prod).recomputable ||
            !tracker_.hasOpDuration(prod)) {
            feasible = false;
            break;
        }
        if (!visited_ops.count(prod))
            expand_op(prod);
    }

    if (!feasible) {
        cand.rpTime = 0;
        cand.srcs.clear();
    } else {
        std::sort(srcs.begin(), srcs.end());
        srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
        cand.srcs = std::move(srcs);
        cand.rpTime = std::max<Tick>(rp_time, 1);
    }
    cand.extTime = 0;
}

void
PolicyMaker::chooseInTrigger(PlannedEviction &item,
                             const PeakWindow &peak) const
{
    Tick desired = item.backTime > item.swapTime
                       ? item.backTime - item.swapTime
                       : 0;
    // Do not start the fetch inside the oversubscribed window if the
    // back-access itself lies beyond it (§4.4).
    if (peak.valid && desired >= peak.lo && desired <= peak.hi &&
        item.backTime > peak.hi) {
        desired = peak.hi;
    }
    item.desiredSwapInStart = desired;
    repickTrigger(item);
}

bool
PolicyMaker::repickTrigger(PlannedEviction &item) const
{
    // Qualifying accesses lie strictly inside (evictTime, backTime) and
    // belong to another tensor; prefer the latest one at or before the
    // desired swap-in start, else the earliest in the window. Served by
    // the tracker's sorted time index instead of a full-sequence scan.
    const AccessRecord *best = tracker_.latestAtOrBefore(
        item.evictTime, item.backTime, item.desiredSwapInStart,
        item.tensor);
    if (!best) {
        // Fire as early as possible.
        best = tracker_.earliestWithin(item.evictTime, item.backTime,
                                       item.tensor);
    }
    if (!best)
        return false;
    item.triggerTensor = best->tensor;
    item.triggerAccess = best->accessIndex;
    return true;
}

namespace
{

/**
 * Pinned transfers serialize per PCIe direction (§4.4): "a swap cannot
 * start until its preceding swap finishes". A candidate's achievable
 * overlap therefore shrinks as already-chosen swaps occupy the lanes.
 * We model each lane as a FIFO over the chosen transfers — swap-outs
 * anchored at their evicted-access, swap-ins at backTime - SwapTime —
 * and charge each candidate the queueing delay it would experience.
 * Once a lane saturates the delay exceeds any recomputation cost and
 * Algorithm 1 flips to recompute.
 */
struct Xfer
{
    Tick anchor;
    Tick dur;
    bool operator<(const Xfer &o) const { return anchor < o.anchor; }
};

/**
 * Total queueing (start - anchor) waiting across a lane's transfers. An
 * early-anchored transfer that pushes every later one back by its
 * duration is charged for that damage.
 */
Tick
laneWait(const std::vector<Xfer> &lane)
{
    Tick busy = 0;
    Tick total = 0;
    for (const auto &x : lane) {
        Tick start = std::max(x.anchor, busy);
        total += start - x.anchor;
        busy = start + x.dur;
    }
    return total;
}

/** Marginal growth in total lane waiting if `probe` were added. */
Tick
queueDelay(std::vector<Xfer> lane, Xfer probe)
{
    std::sort(lane.begin(), lane.end());
    Tick before = laneWait(lane);
    lane.push_back(probe);
    std::sort(lane.begin(), lane.end());
    return laneWait(lane) - before;
}

bool
containsTensor(const std::vector<TensorId> &v, TensorId t)
{
    return std::find(v.begin(), v.end(), t) != v.end();
}

} // namespace

void
PolicyMaker::runIncremental(Plan &plan, std::vector<Candidate> cands) const
{
    // Same selection rules and tie-breaks as the original full-rescan
    // loop (kept as a test oracle, tests/reference_policy_maker.cc), with
    // the rescans replaced by incremental bookkeeping:
    //  - exposures are cached per candidate and stamped with a lane
    //    epoch; only an emitted swap changes the PCIe lanes, so picks
    //    that recompute invalidate nothing;
    //  - the best-MSPS candidate comes from a lazy max-heap keyed
    //    (msps desc, gather index asc) — exactly the old scan's
    //    first-occurrence-of-max order — with stale entries dropped on
    //    pop;
    //  - an emitted recompute updates only the candidates its Algorithm-2
    //    branches can touch, found through per-source reverse indexes
    //    instead of a cands × recomps sweep;
    //  - candidates are never copied or erased: a liveness flag keeps the
    //    gather order (= the old vector order under erases) for
    //    tie-breaking.
    struct Recomp
    {
        TensorId tensor;
        std::vector<TensorId> srcs;
        Tick rpTime;
    };
    std::vector<Recomp> recomps;
    recomps.reserve(cands.size());

    const std::size_t n = cands.size();
    std::vector<char> alive(n, 1);
    std::size_t alive_count = n;

    std::unordered_map<TensorId, std::size_t> cand_by_tensor;
    cand_by_tensor.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        cand_by_tensor.emplace(cands[i].tensor, i);

    // src tensor -> candidate indices whose srcs (may) contain it.
    // Entries are appended when a source enters a candidate's set and
    // validated with a containment check at use: sources are only ever
    // removed when their tensor is picked, after which that key is never
    // queried again.
    std::unordered_map<TensorId, std::vector<std::size_t>> cands_by_src;
    // src tensor -> emitted recompute indices whose srcs (may) contain it.
    std::unordered_map<TensorId, std::vector<std::size_t>> recomps_by_src;
    // Exact count of emitted recomputes whose srcs contain the tensor
    // (the old code's "for rp in recomps: contains(rp.srcs, t)" tally).
    std::unordered_map<TensorId, int> recomp_src_count;

    for (std::size_t i = 0; i < n; ++i) {
        for (TensorId s : cands[i].srcs)
            cands_by_src[s].push_back(i);
    }

    auto can_recompute = [](const Candidate &c) {
        return c.rpTime > 0;
    };

    // Lazy MSPS max-heap. Every msps change pushes a fresh entry, so the
    // entry matching a live candidate's current value is always present;
    // anything else is detected stale on pop and discarded.
    struct HeapEnt
    {
        double msps;
        std::size_t idx;
    };
    struct HeapCmp
    {
        bool operator()(const HeapEnt &a, const HeapEnt &b) const
        {
            if (a.msps != b.msps)
                return a.msps < b.msps;
            return a.idx > b.idx;
        }
    };
    std::priority_queue<HeapEnt, std::vector<HeapEnt>, HeapCmp> heap;
    if (opts_.enableRecompute) {
        for (std::size_t i = 0; i < n; ++i) {
            if (can_recompute(cands[i]))
                heap.push(HeapEnt{cands[i].msps(), i});
        }
    }
    auto top_recompute = [&]() -> std::size_t {
        while (!heap.empty()) {
            const HeapEnt &e = heap.top();
            if (alive[e.idx] && can_recompute(cands[e.idx]) &&
                cands[e.idx].msps() == e.msps)
                return e.idx;
            heap.pop();
        }
        return n;
    };

    std::vector<Xfer> chosen_out, chosen_in;
    std::uint64_t lane_epoch = 1;
    std::vector<Tick> exp_cache(n, 0);
    std::vector<std::uint64_t> exp_epoch(n, 0); // 0 = never computed

    auto exposure_of = [&](std::size_t i) -> Tick {
        if (exp_epoch[i] != lane_epoch) {
            const Candidate &c = cands[i];
            Tick interval = c.backTime - c.evictTime;
            Tick round_trip = 2 * c.swapTime;
            Tick exposed =
                round_trip > interval ? round_trip - interval : 0;
            exposed +=
                queueDelay(chosen_out, Xfer{c.evictTime, c.swapTime});
            Tick in_anchor =
                c.backTime > c.swapTime ? c.backTime - c.swapTime : 0;
            exposed += queueDelay(chosen_in, Xfer{in_anchor, c.swapTime});
            exp_cache[i] = exposed;
            exp_epoch[i] = lane_epoch;
        }
        return exp_cache[i];
    };

    std::int64_t saving = static_cast<std::int64_t>(plan.targetBytes);

    auto emit_swap = [&](std::size_t idx) {
        const Candidate &c = cands[idx];
        PlannedEviction item;
        item.tensor = c.tensor;
        item.mode = RegenChoice::Swap;
        item.bytes = c.bytes;
        item.evictAfterAccess = c.evictAfterAccess;
        item.backAccess = c.backAccess;
        item.evictTime = c.evictTime;
        item.backTime = c.backTime;
        item.swapTime = c.swapTime;
        item.freeTime = c.freeTime;
        item.estimatedOverhead = exposure_of(idx); // pre-update lanes
        chooseInTrigger(item, plan.peak);
        plan.items.push_back(item);
        ++plan.swapCount;
        plan.plannedBytes += c.bytes;
        chosen_out.push_back(Xfer{c.evictTime, c.swapTime});
        chosen_in.push_back(
            Xfer{c.backTime > c.swapTime ? c.backTime - c.swapTime : 0,
                 c.swapTime});
        ++lane_epoch; // every cached exposure is now stale
        alive[idx] = 0;
        --alive_count;
        saving -= static_cast<std::int64_t>(c.bytes);
    };

    auto emit_recompute = [&](std::size_t idx) {
        Candidate &c = cands[idx];
        alive[idx] = 0;
        --alive_count;

        // Algorithm 2, lines 5-12: targets whose source set contained the
        // newly chosen tensor now start from its sources instead, and the
        // shared prefix is replayed once more per such target.
        int ext_ct = 1;
        {
            auto cnt = recomp_src_count.find(c.tensor);
            if (cnt != recomp_src_count.end())
                ext_ct += cnt->second;
        }
        auto rit = recomps_by_src.find(c.tensor);
        if (rit != recomps_by_src.end()) {
            // Copy: appending to recomps_by_src below may rehash the map.
            std::vector<std::size_t> touched = rit->second;
            for (std::size_t rp_idx : touched) {
                Recomp &rp = recomps[rp_idx];
                if (!containsTensor(rp.srcs, c.tensor))
                    continue;
                rp.srcs.erase(std::remove(rp.srcs.begin(), rp.srcs.end(),
                                          c.tensor),
                              rp.srcs.end());
                --recomp_src_count[c.tensor];
                for (TensorId s : c.srcs) {
                    if (!containsTensor(rp.srcs, s)) {
                        rp.srcs.push_back(s);
                        ++recomp_src_count[s];
                        recomps_by_src[s].push_back(rp_idx);
                    }
                }
            }
        }
        recomps.push_back(Recomp{c.tensor, c.srcs, c.rpTime});
        std::size_t new_rp = recomps.size() - 1;
        for (TensorId s : c.srcs) {
            ++recomp_src_count[s];
            recomps_by_src[s].push_back(new_rp);
        }

        // Algorithm 2, lines 17-34, restricted to the candidates the two
        // branches can affect: srcs containing c.tensor (branch 1) and
        // members of c.srcs (branch 2).
        std::vector<std::size_t> affected;
        auto cit = cands_by_src.find(c.tensor);
        if (cit != cands_by_src.end())
            affected = cit->second; // copy; map may rehash below
        for (TensorId s : c.srcs) {
            auto t = cand_by_tensor.find(s);
            if (t != cand_by_tensor.end())
                affected.push_back(t->second);
        }
        std::sort(affected.begin(), affected.end());
        affected.erase(std::unique(affected.begin(), affected.end()),
                       affected.end());

        for (std::size_t j : affected) {
            if (!alive[j])
                continue;
            Candidate &cand = cands[j];
            if (!can_recompute(cand))
                continue;
            bool changed = false;
            if (containsTensor(cand.srcs, c.tensor)) {
                cand.srcs.erase(std::remove(cand.srcs.begin(),
                                            cand.srcs.end(), c.tensor),
                                cand.srcs.end());
                for (TensorId s : c.srcs) {
                    if (!containsTensor(cand.srcs, s)) {
                        cand.srcs.push_back(s);
                        cands_by_src[s].push_back(j);
                    }
                }
                cand.rpTime += c.rpTime;
                int rp_ct = 0;
                auto cc = recomp_src_count.find(cand.tensor);
                if (cc != recomp_src_count.end())
                    rp_ct = cc->second;
                cand.extTime = static_cast<Tick>(rp_ct) * cand.rpTime;
                changed = true;
            }
            if (containsTensor(c.srcs, cand.tensor)) {
                cand.extTime = static_cast<Tick>(ext_ct) * cand.rpTime;
                changed = true;
            }
            if (changed)
                heap.push(HeapEnt{cand.msps(), j});
        }

        PlannedEviction item;
        item.tensor = c.tensor;
        item.mode = RegenChoice::Recompute;
        item.bytes = c.bytes;
        item.evictAfterAccess = c.evictAfterAccess;
        item.backAccess = c.backAccess;
        item.evictTime = c.evictTime;
        item.backTime = c.backTime;
        item.recomputeTime = c.rpTime + c.extTime;
        item.estimatedOverhead = item.recomputeTime;
        plan.items.push_back(item);
        ++plan.recomputeCount;
        plan.plannedBytes += c.bytes;
        saving -= static_cast<std::int64_t>(c.bytes);
    };

    while (saving > 0 && alive_count > 0) {
        // Best swap: maximal FT, i.e. minimal exposure. Scan order over
        // the liveness mask equals the full rescan's vector order, so
        // ties resolve identically.
        std::size_t s_idx = n;
        Tick s_exp = 0;
        if (opts_.enableSwap) {
            for (std::size_t i = 0; i < n; ++i) {
                if (!alive[i])
                    continue;
                Tick e = exposure_of(i);
                if (s_idx == n || e < s_exp ||
                    (e == s_exp &&
                     cands[i].freeTime > cands[s_idx].freeTime)) {
                    s_idx = i;
                    s_exp = e;
                }
            }
        }
        if (s_idx < n && s_exp == 0) {
            emit_swap(s_idx); // fully hidden: swap is free (§4.5)
            continue;
        }

        std::size_t r_idx = opts_.enableRecompute ? top_recompute() : n;

        bool have_s = s_idx < n;
        bool have_r = r_idx < n;
        if (have_s && have_r) {
            Tick r_over = cands[r_idx].rpTime + cands[r_idx].extTime;
            if (s_exp <= r_over)
                emit_swap(s_idx);
            else
                emit_recompute(r_idx);
        } else if (have_s) {
            emit_swap(s_idx);
        } else if (have_r) {
            emit_recompute(r_idx);
        } else {
            break; // nothing actionable left
        }
    }

    if (saving > 0) {
        warn("policy maker covered {} of {} saving target",
             formatBytes(plan.plannedBytes), formatBytes(plan.targetBytes));
    }
}

Plan
PolicyMaker::build(std::uint64_t mem_saving_target,
                   const BytesFn &tensor_bytes, const SwapTimeFn &swap_time,
                   std::uint64_t gpu_capacity)
{
    Plan plan;
    plan.targetBytes = mem_saving_target;
    if (mem_saving_target == 0 || tracker_.empty())
        return plan;

    runIncremental(plan,
                   gatherCandidates(plan, tensor_bytes, swap_time,
                                    gpu_capacity));
    return plan;
}

} // namespace capu
