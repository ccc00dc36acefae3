#include "reference_policy_maker.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/strfmt.hh"

namespace capu
{

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

ReferencePolicyMaker::ReferencePolicyMaker(const Graph &graph,
                                           const AccessTracker &tracker,
                                           PolicyMakerOptions opts)
    : pm_(graph, tracker, opts)
{
}

Plan
ReferencePolicyMaker::build(std::uint64_t mem_saving_target,
                            const PolicyMaker::BytesFn &tensor_bytes,
                            const PolicyMaker::SwapTimeFn &swap_time,
                            std::uint64_t gpu_capacity) const
{
    Plan plan;
    plan.targetBytes = mem_saving_target;
    if (mem_saving_target == 0 || pm_.tracker_.empty())
        return plan;
    run(plan,
        pm_.gatherCandidates(plan, tensor_bytes, swap_time, gpu_capacity));
    return plan;
}

void
ReferencePolicyMaker::run(Plan &plan, std::vector<Candidate> cands) const
{
    struct Recomp
    {
        TensorId tensor;
        std::vector<TensorId> srcs;
        Tick rpTime;
    };
    std::vector<Recomp> recomps;

    std::vector<Xfer> chosen_out, chosen_in;

    auto exposure = [&](const Candidate &c) -> Tick {
        Tick interval = c.backTime - c.evictTime;
        Tick round_trip = 2 * c.swapTime;
        Tick exposed = round_trip > interval ? round_trip - interval : 0;
        exposed += queueDelay(chosen_out, Xfer{c.evictTime, c.swapTime});
        Tick in_anchor = c.backTime > c.swapTime ? c.backTime - c.swapTime
                                                 : 0;
        exposed += queueDelay(chosen_in, Xfer{in_anchor, c.swapTime});
        return exposed;
    };
    auto can_recompute = [](const Candidate &c) {
        return c.rpTime > 0;
    };

    std::int64_t saving = static_cast<std::int64_t>(plan.targetBytes);

    auto emit_swap = [&](std::size_t idx) {
        Candidate c = cands[idx];
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(idx));
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
        item.estimatedOverhead = exposure(c);
        pm_.chooseInTrigger(item, plan.peak);
        plan.items.push_back(item);
        ++plan.swapCount;
        plan.plannedBytes += c.bytes;
        chosen_out.push_back(Xfer{c.evictTime, c.swapTime});
        chosen_in.push_back(
            Xfer{c.backTime > c.swapTime ? c.backTime - c.swapTime : 0,
                 c.swapTime});
        saving -= static_cast<std::int64_t>(c.bytes);
    };

    auto emit_recompute = [&](std::size_t idx) {
        Candidate c = cands[idx];
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(idx));

        // Algorithm 2, lines 5-12: targets whose source set contained the
        // newly chosen tensor now start from its sources instead, and the
        // shared prefix is replayed once more per such target.
        int ext_ct = 1;
        for (auto &rp : recomps) {
            if (containsTensor(rp.srcs, c.tensor)) {
                rp.srcs.erase(
                    std::remove(rp.srcs.begin(), rp.srcs.end(), c.tensor),
                    rp.srcs.end());
                for (TensorId s : c.srcs) {
                    if (!containsTensor(rp.srcs, s))
                        rp.srcs.push_back(s);
                }
                ++ext_ct;
            }
        }
        recomps.push_back(Recomp{c.tensor, c.srcs, c.rpTime});

        // Algorithm 2, lines 17-34: update the remaining candidates.
        for (auto &cand : cands) {
            if (!can_recompute(cand))
                continue;
            if (containsTensor(cand.srcs, c.tensor)) {
                cand.srcs.erase(std::remove(cand.srcs.begin(),
                                            cand.srcs.end(), c.tensor),
                                cand.srcs.end());
                for (TensorId s : c.srcs) {
                    if (!containsTensor(cand.srcs, s))
                        cand.srcs.push_back(s);
                }
                cand.rpTime += c.rpTime;
                cand.extTime = 0;
                for (const auto &rp : recomps) {
                    if (containsTensor(rp.srcs, cand.tensor))
                        cand.extTime += cand.rpTime;
                }
            }
            if (containsTensor(c.srcs, cand.tensor)) {
                cand.extTime =
                    static_cast<Tick>(ext_ct) * cand.rpTime;
            }
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

    while (saving > 0 && !cands.empty()) {
        // Best swap: maximal FT, i.e. minimal exposure.
        std::size_t s_idx = cands.size();
        if (pm_.opts_.enableSwap) {
            for (std::size_t i = 0; i < cands.size(); ++i) {
                if (s_idx == cands.size() ||
                    exposure(cands[i]) < exposure(cands[s_idx]) ||
                    (exposure(cands[i]) == exposure(cands[s_idx]) &&
                     cands[i].freeTime > cands[s_idx].freeTime)) {
                    s_idx = i;
                }
            }
        }
        if (s_idx < cands.size() && exposure(cands[s_idx]) == 0) {
            emit_swap(s_idx); // fully hidden: swap is free (§4.5)
            continue;
        }

        std::size_t r_idx = cands.size();
        if (pm_.opts_.enableRecompute) {
            for (std::size_t i = 0; i < cands.size(); ++i) {
                if (!can_recompute(cands[i]))
                    continue;
                if (r_idx == cands.size() ||
                    cands[i].msps() > cands[r_idx].msps()) {
                    r_idx = i;
                }
            }
        }

        bool have_s = s_idx < cands.size();
        bool have_r = r_idx < cands.size();
        if (have_s && have_r) {
            Tick s_over = exposure(cands[s_idx]);
            Tick r_over = cands[r_idx].rpTime + cands[r_idx].extTime;
            if (s_over <= r_over)
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

} // namespace capu
