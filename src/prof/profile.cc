#include "prof/profile.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <unordered_map>

#include "obs/tracer.hh"
#include "support/rng.hh"

namespace capu::prof
{

namespace
{

/** Bucket categories in sweep priority order (idle is the remainder). */
enum Cat : int
{
    kCompute = 0,
    kRecompute = 1,
    kOom = 2,
    kSwapStall = 3,
    kNumCats = 4,
};

struct Boundary
{
    Tick at = 0;
    int cat = 0;
    int delta = 0; ///< +1 open, -1 close
};

void
addBucket(Buckets &b, int cat, Tick amount)
{
    switch (cat) {
      case kCompute: b.compute += amount; break;
      case kRecompute: b.recompute += amount; break;
      case kOom: b.oomStall += amount; break;
      case kSwapStall: b.swapStall += amount; break;
      default: b.idle += amount; break;
    }
}

/** `label` is scratch space for the event's formatted name. */
std::uint64_t
mixEvent(std::uint64_t h, const obs::TraceEvent &ev, Tick iterBegin,
         const obs::Names &names, std::string &label)
{
    h = hashCombine(h, ev.track());
    h = hashCombine(h, static_cast<std::uint64_t>(ev.phase()));
    h = hashCombine(h, static_cast<std::uint64_t>(ev.kind()));
    h = hashCombine(h, static_cast<std::uint64_t>(ev.tensor + 1));
    h = hashCombine(h, static_cast<std::uint64_t>(ev.op + 1));
    h = hashCombine(h, ev.bytes);
    h = hashCombine(h, ev.ts - iterBegin); // shift-invariant (replay)
    h = hashCombine(h, ev.dur);
    std::uint64_t vb = 0;
    std::memcpy(&vb, &ev.value, sizeof(vb));
    h = hashCombine(h, vb);
    label.clear();
    obs::formatLabel(label, ev, names);
    h = hashCombine(h, hashString(label.c_str()));
    return h;
}

} // namespace

Buckets
Buckets::operator-(const Buckets &o) const
{
    auto sub = [](Tick a, Tick b) { return a >= b ? a - b : 0; };
    Buckets d;
    d.compute = sub(compute, o.compute);
    d.recompute = sub(recompute, o.recompute);
    d.swapStall = sub(swapStall, o.swapStall);
    d.oomStall = sub(oomStall, o.oomStall);
    d.idle = sub(idle, o.idle);
    return d;
}

Tick
Profile::conservationError() const
{
    Tick total = buckets.total();
    return total >= wallTicks ? total - wallTicks : wallTicks - total;
}

Profile
buildProfile(const std::vector<obs::TraceEvent> &events,
             const obs::Names &names, const ProfileOptions &opts)
{
    Profile out;
    out.meta = opts.meta;
    out.droppedEvents = opts.droppedEvents;
    out.events = events.size();
    if (events.empty())
        return out;

    // Chronological working copy; the replay track carries synthesized-
    // iteration markers only and must not distinguish a replayed run
    // from an executed one.
    std::vector<const obs::TraceEvent *> evs;
    evs.reserve(events.size());
    for (const auto &ev : events) {
        if (ev.track() != obs::kTrackReplay)
            evs.push_back(&ev);
    }
    std::stable_sort(evs.begin(), evs.end(),
                     [](const obs::TraceEvent *a, const obs::TraceEvent *b) {
                         return a->ts < b->ts;
                     });
    if (evs.empty())
        return out;

    // --- iteration windows + session window ---
    for (const obs::TraceEvent *ev : evs) {
        if (ev->label == obs::Label::Iteration) {
            IterationProfile it;
            it.iteration = static_cast<int>(ev->number);
            it.begin = ev->ts;
            it.end = ev->ts + ev->dur;
            it.digest = 1469598103934665603ull; // FNV-1a offset basis
            out.iterations.push_back(it);
        }
    }
    std::sort(out.iterations.begin(), out.iterations.end(),
              [](const IterationProfile &a, const IterationProfile &b) {
                  return a.begin != b.begin ? a.begin < b.begin
                                            : a.iteration < b.iteration;
              });
    if (!out.iterations.empty()) {
        out.sessionBegin = out.iterations.front().begin;
        out.sessionEnd = out.iterations.back().end;
    } else {
        // Aborted/partial run: attribute whatever the trace covers.
        out.sessionBegin = evs.front()->ts;
        out.sessionEnd = evs.front()->ts;
        for (const obs::TraceEvent *ev : evs)
            out.sessionEnd = std::max(out.sessionEnd, ev->ts + ev->dur);
    }
    out.wallTicks = out.sessionEnd - out.sessionBegin;

    // The iteration window holding `ts`; nullptr before the first one and
    // in inter-iteration gaps.
    std::vector<Tick> begins;
    begins.reserve(out.iterations.size());
    for (const auto &it : out.iterations)
        begins.push_back(it.begin);
    auto iterAt = [&](Tick ts) -> IterationProfile * {
        auto pos = std::upper_bound(begins.begin(), begins.end(), ts);
        if (pos == begins.begin())
            return nullptr;
        IterationProfile &it =
            out.iterations[static_cast<std::size_t>(pos - begins.begin()) - 1];
        return ts < it.end ? &it : nullptr;
    };

    // --- accounts keyed by tensor / op id ---
    std::map<std::int64_t, TensorAccount> tensors;
    std::map<std::int64_t, OpAccount> ops;
    auto tacc = [&](std::int64_t id) -> TensorAccount & {
        auto &acc = tensors[id];
        acc.tensor = id;
        return acc;
    };

    // --- single walk: occupancy intervals + per-tensor raw material ---
    std::vector<Boundary> bounds;
    // Per tensor: sorted access ticks, stall-end ticks, resident and
    // off-device (relief) lifetime intervals.
    std::unordered_map<std::int64_t, std::vector<Tick>> accesses;
    std::unordered_map<std::int64_t, std::vector<Tick>> stallEnds;
    // Each tensor's open residency span, as the event that opened it.
    std::unordered_map<std::int64_t, obs::TraceEvent> openSpans;
    struct Residency
    {
        Tick begin = 0;
        Tick end = 0;
    };
    std::unordered_map<std::int64_t, std::vector<Residency>> resident;
    struct H2d
    {
        std::int64_t tensor = -1;
        Tick start = 0;
        Tick end = 0;
        bool onDemand = false;
    };
    std::vector<H2d> h2ds;

    auto addInterval = [&](int cat, Tick a, Tick b) {
        a = std::max(a, out.sessionBegin);
        b = std::min(b, out.sessionEnd);
        if (a >= b)
            return;
        bounds.push_back({a, cat, +1});
        bounds.push_back({b, cat, -1});
    };
    auto closeSpan = [&](std::int64_t id, const obs::TraceEvent &span,
                         Tick endTs) {
        TensorAccount &acc = tacc(id);
        if (acc.bytes == 0)
            acc.bytes = span.bytes;
        if (span.label == obs::Label::PhaseOut ||
            span.label == obs::Label::PhaseDropped) {
            acc.reliefByteTicks += static_cast<double>(span.bytes) *
                                   static_cast<double>(endTs - span.ts);
        } else {
            // IN / SWAPPING_IN / SWAPPING_OUT all hold device bytes.
            resident[id].push_back({span.ts, endTs});
        }
    };

    std::string label; // scratch for the digests' formatted names
    for (const obs::TraceEvent *pev : evs) {
        const obs::TraceEvent &ev = *pev;
        IterationProfile *iter = iterAt(ev.ts);
        if (iter)
            iter->digest = mixEvent(iter->digest, ev, iter->begin, names,
                                    label);
        switch (ev.label) {
          case obs::Label::Kernel:
            addInterval(kCompute, ev.ts, ev.ts + ev.dur);
            if (ev.op >= 0) {
                OpAccount &oa = ops[ev.op];
                oa.op = ev.op;
                ++oa.count;
                oa.computeTicks += ev.dur;
            }
            break;
          case obs::Label::Recompute:
            addInterval(kRecompute, ev.ts, ev.ts + ev.dur);
            if (ev.tensor >= 0) {
                TensorAccount &acc = tacc(ev.tensor);
                acc.recomputeTicks += ev.dur;
                ++acc.recomputeOps;
            }
            break;
          case obs::Label::Stall:
            addInterval(kSwapStall, ev.ts, ev.ts + ev.dur);
            if (ev.tensor >= 0) {
                tacc(ev.tensor).stallTicks += ev.dur;
                stallEnds[ev.tensor].push_back(ev.ts + ev.dur);
            }
            break;
          case obs::Label::OomWaitFree:
            addInterval(kOom, ev.ts, ev.ts + ev.dur);
            break;
          case obs::Label::SwapOut:
          case obs::Label::OomSwapOut:
          case obs::Label::SwapIn:
          case obs::Label::Prefetch: {
            if (ev.tensor < 0)
                break;
            TensorAccount &acc = tacc(ev.tensor);
            acc.transferTicks += ev.dur;
            if (ev.failed)
                break; // occupancy only: the copy never completed
            acc.bytes = std::max(acc.bytes, ev.bytes);
            if (ev.track() == obs::kTrackD2H) {
                acc.swapOutBytes += ev.bytes;
                ++acc.swapOutCount;
            } else {
                acc.swapInBytes += ev.bytes;
                ++acc.swapInCount;
                h2ds.push_back({ev.tensor, ev.ts, ev.ts + ev.dur,
                                ev.label == obs::Label::SwapIn});
            }
            break;
          }
          case obs::Label::Read:
          case obs::Label::Write:
            if (ev.tensor >= 0)
                accesses[ev.tensor].push_back(ev.ts);
            break;
          // The drift track marks each iteration's shape class at its
          // begin tick (capudrift); static runs emit nothing on it.
          case obs::Label::DriftClass:
            if (iter)
                iter->shapeClass = static_cast<int>(ev.number);
            break;
          case obs::Label::DriftNovel:
            ++out.drift.novel;
            break;
          case obs::Label::DriftRemeasure:
            ++out.drift.remeasures;
            break;
          case obs::Label::GpuBytesInUse: {
            auto sampled = static_cast<std::uint64_t>(ev.value);
            if (sampled > out.peakBytes) {
                out.peakBytes = sampled;
                out.peakTs = ev.ts;
            }
            break;
          }
          default:
            if (ev.kind() != obs::EventKind::Lifetime)
                break;
            auto it = openSpans.find(ev.tensor);
            if (it != openSpans.end()) {
                closeSpan(ev.tensor, it->second, ev.ts);
                openSpans.erase(it);
            }
            if (!ev.closes)
                openSpans[ev.tensor] = ev;
            break;
        }
    }
    // Spans still open when the trace ends extend to the session edge.
    for (auto &[id, span] : openSpans)
        closeSpan(id, span, out.sessionEnd);
    for (const auto &it : out.iterations) {
        if (it.shapeClass < 0)
            continue;
        auto cls = static_cast<std::size_t>(it.shapeClass);
        if (out.drift.iterationsPerClass.size() <= cls) {
            out.drift.iterationsPerClass.resize(cls + 1, 0);
            out.drift.wallPerClass.resize(cls + 1, 0);
        }
        ++out.drift.iterationsPerClass[cls];
        out.drift.wallPerClass[cls] += it.end - it.begin;
    }
    for (int n : out.drift.iterationsPerClass)
        out.drift.classes += n > 0 ? 1 : 0;

    // --- bucket sweep ---
    // Iteration edges join the boundary set so no segment straddles an
    // iteration window; every tick of [sessionBegin, sessionEnd] lands in
    // exactly one bucket, which is the conservation property the tests
    // and the CI smoke check assert.
    for (const auto &it : out.iterations) {
        bounds.push_back({it.begin, 0, 0});
        bounds.push_back({it.end, 0, 0});
    }
    std::sort(bounds.begin(), bounds.end(),
              [](const Boundary &a, const Boundary &b) {
                  return a.at < b.at;
              });
    std::size_t iterIdx = 0;
    int active[kNumCats] = {};
    Tick cursor = out.sessionBegin;
    std::size_t bi = 0;
    while (cursor < out.sessionEnd) {
        // Apply every boundary at `cursor`, then extend to the next one.
        for (; bi < bounds.size() && bounds[bi].at <= cursor; ++bi)
            active[bounds[bi].cat] += bounds[bi].delta;
        Tick next = bi < bounds.size()
                        ? std::min(bounds[bi].at, out.sessionEnd)
                        : out.sessionEnd;
        if (next <= cursor) {
            cursor = next == cursor ? next + 1 : next;
            continue;
        }
        int cat = kNumCats; // idle
        for (int c = 0; c < kNumCats; ++c) {
            if (active[c] > 0) {
                cat = c;
                break;
            }
        }
        Tick amount = next - cursor;
        addBucket(out.buckets, cat, amount);
        while (iterIdx < out.iterations.size() &&
               out.iterations[iterIdx].end <= cursor)
            ++iterIdx;
        if (iterIdx < out.iterations.size() &&
            out.iterations[iterIdx].begin <= cursor &&
            cursor < out.iterations[iterIdx].end)
            addBucket(out.iterations[iterIdx].buckets, cat, amount);
        cursor = next;
    }

    // --- prefetch timeliness ---
    for (auto &[id, ts] : accesses)
        std::sort(ts.begin(), ts.end());
    double meanIter =
        out.iterations.empty()
            ? static_cast<double>(out.wallTicks)
            : static_cast<double>(out.wallTicks) /
                  static_cast<double>(out.iterations.size());
    Tick earlyMargin = static_cast<Tick>(meanIter * opts.earlyMarginFrac);
    for (const H2d &tr : h2ds) {
        TensorAccount &acc = tacc(tr.tensor);
        if (tr.onDemand) {
            ++acc.prefetch.missed;
            continue;
        }
        auto se = stallEnds.find(tr.tensor);
        bool late = false;
        if (se != stallEnds.end()) {
            // A prefetch the back access still waited on emits a Stall
            // whose end is exactly the transfer's completion tick.
            late = std::find(se->second.begin(), se->second.end(),
                             tr.end) != se->second.end();
        }
        if (late) {
            ++acc.prefetch.late;
            continue;
        }
        const auto &acc_ts = accesses[tr.tensor];
        auto next = std::lower_bound(acc_ts.begin(), acc_ts.end(), tr.end);
        if (next == acc_ts.end()) {
            ++acc.prefetch.early; // fetched, never read before trace end
            continue;
        }
        Tick margin = *next - tr.end;
        if (margin > earlyMargin)
            ++acc.prefetch.early;
        else
            ++acc.prefetch.onTime;
    }

    // --- peak residency + finalization ---
    for (auto &[id, acc] : tensors) {
        auto it = resident.find(id);
        if (it != resident.end()) {
            for (const auto &r : it->second) {
                if (r.begin <= out.peakTs && out.peakTs < r.end) {
                    acc.residentAtPeak = true;
                    break;
                }
            }
        }
        acc.overheadTicks = acc.stallTicks + acc.recomputeTicks;
        acc.name = names.tensor(id);
        if (acc.name.empty())
            acc.name = "tensor" + std::to_string(id);
    }
    for (auto &[id, oa] : ops)
        oa.name = names.op(id);

    out.tensors.reserve(tensors.size());
    for (auto &[id, acc] : tensors)
        out.tensors.push_back(std::move(acc));
    out.ops.reserve(ops.size());
    for (auto &[id, oa] : ops)
        out.ops.push_back(std::move(oa));

    if (opts.withCriticalPath) {
        out.critical = computeCriticalPath(events, opts.maxPathSteps);
    }
    return out;
}

Profile
buildProfile(const obs::Tracer &tracer, const obs::Names &names,
             const ProfileOptions &opts)
{
    ProfileOptions effective = opts;
    effective.droppedEvents = tracer.dropped();
    if (effective.meta.empty())
        effective.meta = tracer.meta();
    return buildProfile(tracer.chronological(), names, effective);
}

std::vector<const TensorAccount *>
rankTensors(const Profile &profile)
{
    std::vector<const TensorAccount *> ranked;
    ranked.reserve(profile.tensors.size());
    for (const auto &acc : profile.tensors)
        ranked.push_back(&acc);
    std::sort(ranked.begin(), ranked.end(),
              [](const TensorAccount *a, const TensorAccount *b) {
                  if (a->overheadTicks != b->overheadTicks)
                      return a->overheadTicks > b->overheadTicks;
                  std::uint64_t sa = a->swapOutBytes + a->swapInBytes;
                  std::uint64_t sb = b->swapOutBytes + b->swapInBytes;
                  if (sa != sb)
                      return sa > sb;
                  return a->tensor < b->tensor;
              });
    return ranked;
}

ServeSummary
serveSummaryFromMetrics(const obs::MetricsRegistry &metrics)
{
    ServeSummary s;
    s.present = true;
    s.hits = metrics.counter("capu.serve.hit");
    s.misses = metrics.counter("capu.serve.miss");
    s.evictions = metrics.counter("capu.serve.evict");
    s.diskLoads = metrics.counter("capu.serve.disk_load");
    s.cacheEntries = static_cast<std::uint64_t>(
        metrics.gauge("capu.serve.cache.entries"));
    s.cacheBytes = static_cast<std::uint64_t>(
        metrics.gauge("capu.serve.cache.bytes"));
    s.hitRate = metrics.gauge("capu.serve.hit_rate");
    return s;
}

} // namespace capu::prof
