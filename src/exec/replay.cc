#include "exec/replay.hh"

#include <algorithm>

#include "support/rng.hh"

namespace capu
{

ReplayEngine::ReplayEngine(Executor &exec, MemoryPolicy *policy)
    : exec_(exec), policy_(policy), opts_(exec.config().replay)
{
    if (!exec_.replayArmed())
        return;
    armed_ = true;
    const Graph &g = exec_.graph();
    for (std::size_t t = 0; t < g.numTensors(); ++t) {
        auto id = static_cast<TensorId>(t);
        if (g.tensor(id).kind == TensorKind::Weight)
            weightIds_.push_back(id);
    }
}

ReplayEngine::ReplayEngine(const ReplayEngine &other, Executor &exec,
                           MemoryPolicy *policy)
    : exec_(exec), policy_(policy), opts_(other.opts_),
      armed_(other.armed_), disabled_(other.disabled_),
      weightIds_(other.weightIds_), haveMarks_(other.haveMarks_),
      marks_(other.marks_), machineState_(other.machineState_),
      tracks_(other.tracks_),
      summary_(other.summary_)
{
}

bool
ReplayEngine::canReplay()
{
    if (!armed_ || disabled_)
        return false;
    Track &tr = tracks_[exec_.shapeClass()];
    if (tr.state != State::Steady)
        return false;
    if (policy_ && !policy_->stableForReplay())
        return false;
    // A template's deltas (allocator counters included) hold only from
    // the state it started in, and synthesis re-stages the pending frees
    // but nothing else. An iteration executed from a state no template
    // covers checks the fixed point just as an audit does.
    auto it = tr.templates.find(machineState_);
    bool covered = it != tr.templates.end() &&
                   it->second.start.resident == it->second.end.resident;
    if (!covered || (opts_.auditInterval > 0 &&
                     tr.replayedSinceAudit >= opts_.auditInterval)) {
        tr.auditPending = true;
        return false;
    }
    return true;
}

void
ReplayEngine::observe(const IterationStats &stats)
{
    ++summary_.executed;
    if (!armed_ || disabled_)
        return;
    if (!haveMarks_) {
        // First executed iteration after (re)entry: only a baseline.
        captureMarks(marks_);
        machineState_ = machineStateOf(stats.end, nullptr);
        haveMarks_ = true;
        return;
    }
    Delta delta = captureDelta(stats);
    captureMarks(marks_);
    machineState_ = delta.end;
    bool stable = !policy_ || policy_->stableForReplay();
    // The class that just executed (Session selects it before running, so
    // it is still current here).
    Track &tr = tracks_[exec_.shapeClass()];

    if (tr.state == State::Steady) {
        // An executed iteration while steady is either a due audit or a
        // fill-in forced by a policy-instability blip.
        bool was_audit = tr.auditPending;
        tr.auditPending = false;
        tr.replayedSinceAudit = 0;
        if (was_audit)
            ++summary_.audits;
        if (stable && delta.digest == tr.lastDigest) {
            // Digest reproduced: add or refresh the template for this
            // start state, keeping cached trace events and clock offsets
            // ring-fresh.
            MachineState start = delta.start;
            tr.templates.insert_or_assign(start, std::move(delta));
            return;
        }
        if (was_audit) {
            ++summary_.auditMismatches;
            if (summary_.auditMismatches >= opts_.maxAuditMismatches) {
                disabled_ = true;
                return;
            }
        }
        // The fixed point moved (legitimately, if the policy adapted);
        // hunt for the new one.
        tr.state = State::Observing;
        tr.templates.clear();
        tr.lastDigest = delta.digest;
        tr.haveLastDigest = stable;
        return;
    }

    // Observing: two consecutive stable iterations of this shape class
    // with equal digests establish its fixed point.
    if (stable && tr.haveLastDigest && delta.digest == tr.lastDigest) {
        MachineState start = delta.start;
        tr.templates.emplace(start, std::move(delta));
        tr.state = State::Steady;
        tr.replayedSinceAudit = 0;
        return;
    }
    tr.lastDigest = delta.digest;
    tr.haveLastDigest = stable;
}

void
ReplayEngine::noteAbort()
{
    if (!armed_ || disabled_)
        return;
    // The machine was force-reset mid-iteration: every class's cached
    // steady state describes a layout that no longer exists.
    for (auto &[cls, tr] : tracks_) {
        (void)cls;
        tr.state = State::Observing;
        tr.templates.clear();
        tr.haveLastDigest = false;
        tr.auditPending = false;
        tr.replayedSinceAudit = 0;
    }
    haveMarks_ = false;
}

IterationStats
ReplayEngine::synthesize()
{
    Track &tr = tracks_[exec_.shapeClass()];
    const Delta &tpl = tr.templates.at(machineState_);
    IterationStats st = tpl.stats;
    // Same begin rule as Executor::beginIterationState; at the fixed point
    // both operands equal the previous iteration's end.
    Tick now = std::max(exec_.now(), exec_.computeStream().busyUntil());
    st.iteration = exec_.iteration();
    st.begin = now;
    st.end = now + tpl.shift.dt;

    emitSynthesized(st, tpl);
    exec_.replayApply(tpl.shift);
    for (const auto &[id, bumps] : tpl.weightBumps)
        exec_.replayBumpWeight(id, bumps);
    if (tpl.start.pending != tpl.end.pending) {
        std::vector<PendingFree> frees = tpl.endPending;
        for (PendingFree &f : frees)
            f.when += st.end;
        exec_.replayRestagePending(frees);
    }
    machineState_ = tpl.end;

    // Re-baseline after every synthesized iteration: an eventual audit
    // must diff exactly one executed iteration, not the accumulated
    // replayed span.
    captureMarks(marks_);
    ++summary_.replayed;
    ++tr.replayedSinceAudit;
    return st;
}

void
ReplayEngine::captureMarks(Marks &into) const
{
    into.computeBusy = exec_.computeStream().busyTime();
    into.d2hBusy = exec_.pcie().lane(CopyDir::DeviceToHost).busyTime();
    into.h2dBusy = exec_.pcie().lane(CopyDir::HostToDevice).busyTime();
    into.tracerMark = exec_.obs().tracer.recorded();
    into.weightVersions.clear();
    into.weightVersions.reserve(weightIds_.size());
    for (TensorId id : weightIds_)
        into.weightVersions.push_back(exec_.tensorState(id).weightVersion);
    if (exec_.obs().metricsOn())
        into.metrics = exec_.obs().metrics.values();
}

ReplayEngine::Delta
ReplayEngine::captureDelta(const IterationStats &stats) const
{
    Delta d;
    d.stats = stats;
    d.shift.dt = stats.duration();
    d.shift.computeBusy =
        exec_.computeStream().busyTime() - marks_.computeBusy;
    d.shift.d2hBusy =
        exec_.pcie().lane(CopyDir::DeviceToHost).busyTime() - marks_.d2hBusy;
    d.shift.h2dBusy =
        exec_.pcie().lane(CopyDir::HostToDevice).busyTime() - marks_.h2dBusy;

    for (std::size_t i = 0; i < weightIds_.size(); ++i) {
        int cur = exec_.tensorState(weightIds_[i]).weightVersion;
        int prev = marks_.weightVersions[i];
        if (cur != prev)
            d.weightBumps.emplace_back(weightIds_[i], cur - prev);
    }

    if (exec_.obs().metricsOn())
        d.metrics = exec_.obs().metrics.deltaSince(marks_.metrics);

    if (exec_.obs().tracing())
        d.events = exec_.obs().tracer.eventsSince(marks_.tracerMark);

    d.start = machineState_;
    d.end = machineStateOf(stats.end, &d.endPending);
    d.digest = digestOf(d);
    return d;
}

ReplayEngine::MachineState
ReplayEngine::machineStateOf(Tick end, std::vector<PendingFree> *pending) const
{
    std::uint64_t resident = hashString("capureplay/resident");
    auto mix = [&resident](std::uint64_t v) {
        resident = hashCombine(resident, v);
    };

    // Resource horizons relative to iteration end, clamped to zero: a
    // horizon at or before `end` is a behavioral don't-care (an idle lane
    // stays idle however far in the past it drained), and clamping keeps
    // such lanes from blocking digest convergence. A free maturing at or
    // before `end` applies at the next allocation all the same.
    auto rel = [end](Tick t) { return t > end ? t - end : 0; };
    mix(rel(exec_.computeStream().busyUntil()));
    mix(rel(exec_.pcie().laneBusyUntil(CopyDir::DeviceToHost)));
    mix(rel(exec_.pcie().laneBusyUntil(CopyDir::HostToDevice)));
    mix(rel(exec_.computeBarrierTick()));
    mix(rel(exec_.now()));

    // Allocator fixed point. Free chunks coalesce, so the allocated
    // chunks fix the arena layout; those awaiting a free are hashed apart.
    std::vector<PendingFree> frees = exec_.memory().pendingFrees();
    std::uint64_t queued = hashString("capureplay/pending");
    for (PendingFree &f : frees) {
        f.when = rel(f.when);
        queued = hashCombine(queued, f.when);
        queued = hashCombine(queued, f.handle);
        queued = hashCombine(queued, f.bytes);
    }
    for (const auto &c : exec_.memory().gpu().snapshot()) {
        if (c.free || exec_.memory().isFreePending(c.offset))
            continue;
        mix(c.offset);
        mix(c.size);
    }
    mix(exec_.memory().host().bytesInUse());
    if (pending)
        *pending = std::move(frees);
    return {resident, queued};
}

std::uint64_t
ReplayEngine::digestOf(const Delta &d) const
{
    std::uint64_t h = hashString("capureplay/v1");
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };

    mix(exec_.iterationAccessHash());

    // Iteration stats: every field but the absolute ones (iteration,
    // begin, end); duration stands in for the time axis.
    const IterationStats &s = d.stats;
    mix(s.duration());
    mix(s.kernelBusy);
    mix(s.recomputeBusy);
    mix(s.inputStall);
    mix(s.allocStall);
    mix(s.swapOutBytes);
    mix(s.swapInBytes);
    mix(static_cast<std::uint64_t>(s.swapOutCount));
    mix(static_cast<std::uint64_t>(s.swapInCount));
    mix(static_cast<std::uint64_t>(s.recomputedTensors));
    mix(static_cast<std::uint64_t>(s.recomputeOps));
    mix(static_cast<std::uint64_t>(s.droppedTensors));
    mix(s.droppedBytes);
    mix(static_cast<std::uint64_t>(s.inplaceForwards));
    mix(static_cast<std::uint64_t>(s.fallbackKernels));
    mix(static_cast<std::uint64_t>(s.oomEvictions));
    mix(static_cast<std::uint64_t>(s.elidedWritebacks));
    mix(s.prefetchBusy);
    mix(s.prefetchStall);
    mix(s.peakGpuBytes);
    mix(d.end.resident);
    mix(d.end.pending);

    for (const auto &[id, bumps] : d.weightBumps) {
        mix(static_cast<std::uint64_t>(id));
        mix(static_cast<std::uint64_t>(bumps));
    }

    return h;
}

void
ReplayEngine::emitSynthesized(const IterationStats &st, const Delta &tpl)
{
    obs::Obs &obs = exec_.obs();
    if (obs.tracing()) {
        Tick offset = st.begin - tpl.stats.begin;
        obs.tracer.emit({.label = obs::Label::ReplayIter,
                         .ts = st.begin,
                         .number = st.iteration});
        for (obs::TraceEvent ev : tpl.events) {
            ev.ts += offset;
            if (ev.label == obs::Label::IterBegin ||
                ev.label == obs::Label::Iteration)
                ev.number = st.iteration;
            obs.tracer.emit(ev);
        }
    }
    if (obs.metricsOn()) {
        auto &m = obs.metrics;
        m.replay(tpl.metrics);
        // Observer-self: the live tracer's count replaces the template's.
        if (obs.tracing())
            m.setCounter(obs::Metric::TraceDropped, obs.tracer.dropped());
        m.add(obs::Metric::ReplayIterations);
        m.snapshotIteration(st.iteration);
    }
}

} // namespace capu
