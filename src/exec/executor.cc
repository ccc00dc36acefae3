#include "exec/executor.hh"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "support/logging.hh"
#include "support/rng.hh"

namespace capu
{

namespace
{

/** Host-side dispatch cost per op in eager mode (Python interpreter). */
constexpr Tick kEagerHostOverhead = ticksFromUs(30);

/**
 * Eager activations are allocated with this slack factor: graph mode's
 * buffer forwarding, pruning and fusion shrink the activation footprint
 * relative to op-by-op execution (paper §6.4.1: ResNet-50 fits 190 in
 * graph mode but only 122 eagerly).
 */
constexpr double kEagerActivationSlack = 1.5;

/** Pinned host staging capacity (the testbed had 256 GB). */
constexpr std::uint64_t kHostPoolBytes = 256ull << 30;

} // namespace

Executor::Executor(const Graph &graph, ExecConfig config,
                   MemoryPolicy *policy)
    : graph_(graph), config_(std::move(config)), policy_(policy),
      cost_(config_.device), faults_(config_.faults, config_.seed),
      mem_(config_.device.memCapacity,
           faults_.clampHostBytes(kHostPoolBytes), config_.allocator),
      compute_("compute"),
      pcie_(config_.device.pcieBandwidth, config_.device.pcieLatency)
{
    if (config_.eagerMode && policy_ && !policy_->graphAgnostic())
        fatal("policy '{}' requires a computation graph and cannot run in "
              "eager mode", policy_->name());
    obs_.configure(config_.obsLevel, config_.obsRingCapacity);
    compute_.attachTracer(&obs_.tracer, obs::kTrackCompute);
    pcie_.attachTracer(&obs_.tracer);
    mem_.attachTracer(&obs_.tracer);
    obs_.tracer.setTrackName(obs::kTrackHost, "host");
    obs_.tracer.setTrackName(obs::kTrackPolicy, "policy");
    obs_.tracer.setMeta("seed", fmt("{}", config_.seed));
    obs_.tracer.setMeta("faults", faults_.spec().summary());
    if (faults_.enabled()) {
        faults_.attachTracer(&obs_.tracer);
        pcie_.attachFaults(&faults_);
        inform("capuchaos armed: {} (seed {})", faults_.spec().summary(),
               config_.seed);
    } else {
        obs_.tracer.setTrackName(obs::kTrackRecovery, "recovery");
    }
    if (obs_.metricsOn())
        obs_.metrics.setCounter(obs::Metric::RunSeed, config_.seed);
    // Replay needs determinism the fault engine's RNG-driven perturbations
    // deny; with a fault plan active the armed bit stays off and the
    // per-access hash is never maintained.
    replayArmed_ = config_.replay.enabled && !faults_.enabled();
    if (replayArmed_)
        obs_.tracer.setTrackName(obs::kTrackReplay, "replay");
    if (graph_.dynamic())
        obs_.tracer.setTrackName(obs::kTrackDrift, "drift");
}

Executor::Executor(const Executor &other, const Graph &graph,
                   MemoryPolicy *policy)
    : graph_(graph), config_(other.config_), policy_(policy),
      cost_(other.cost_), faults_(other.faults_), obs_(other.obs_),
      mem_(other.mem_), compute_(other.compute_), pcie_(other.pcie_),
      schedule_(other.schedule_),
      variantSchedules_(other.variantSchedules_),
      activeVariant_(other.activeVariant_), states_(other.states_),
      usesPerIteration_(other.usesPerIteration_),
      lastUsePos_(other.lastUsePos_), clock_(other.clock_),
      hostClock_(other.hostClock_), computeBarrier_(other.computeBarrier_),
      iteration_(other.iteration_), setupDone_(other.setupDone_),
      currentOp_(other.currentOp_), currentOpEnd_(other.currentOpEnd_),
      stats_(other.stats_), replayArmed_(other.replayArmed_),
      iterAccessHash_(other.iterAccessHash_), fedBfc_(other.fedBfc_),
      fedHostFailedAllocs_(other.fedHostFailedAllocs_)
{
    // The member-wise copies above left four raw observer pointers aimed
    // at `other`'s tracer / fault engine. Re-attach them to this copy's
    // own instances; attachment is a pure pointer swap (never touches
    // simulated time), so the fork's machine state stays bit-identical.
    compute_.attachTracer(&obs_.tracer, obs::kTrackCompute);
    pcie_.attachTracer(&obs_.tracer);
    mem_.attachTracer(&obs_.tracer);
    if (faults_.enabled()) {
        faults_.attachTracer(&obs_.tracer);
        pcie_.attachFaults(&faults_);
    }
}

TensorState &
Executor::state(TensorId id)
{
    if (id >= states_.size())
        panic("tensor id {} out of range", id);
    return states_[id];
}

const TensorState &
Executor::state(TensorId id) const
{
    if (id >= states_.size())
        panic("tensor id {} out of range", id);
    return states_[id];
}

const TensorState &
Executor::tensorState(TensorId id) const
{
    return state(id);
}

std::uint64_t
Executor::allocBytes(TensorId id) const
{
    const TensorDesc &t = graph_.tensor(id);
    if (config_.eagerMode && (t.kind == TensorKind::FeatureMap ||
                              t.kind == TensorKind::Gradient)) {
        return static_cast<std::uint64_t>(
            static_cast<double>(t.bytes) * kEagerActivationSlack);
    }
    return t.bytes;
}

std::uint64_t
Executor::wireBytes(std::uint64_t bytes) const
{
    if (config_.swapCompressionRatio <= 1.0)
        return bytes;
    return static_cast<std::uint64_t>(
        static_cast<double>(bytes) / config_.swapCompressionRatio);
}

TensorStatus
Executor::effectiveStatus(const TensorState &st, Tick at) const
{
    if (st.status == TensorStatus::SwappingOut && at >= st.swapOutDone)
        return TensorStatus::Out;
    if (st.status == TensorStatus::SwappingIn && at >= st.swapInReady)
        return TensorStatus::In;
    return st.status;
}

void
Executor::setup()
{
    if (setupDone_)
        panic("setup() called twice");
    schedule_ = graph_.topoOrder();
    states_.assign(graph_.numTensors(), TensorState{});
    usesPerIteration_.assign(graph_.numTensors(), 0);
    for (std::size_t t = 0; t < graph_.numTensors(); ++t) {
        usesPerIteration_[t] =
            static_cast<int>(graph_.consumers(static_cast<TensorId>(t))
                                 .size());
    }
    // Schedule position of each tensor's last consumer (-1 = never
    // consumed). Host copies die at refcount zero, i.e. right after this
    // position; canRegenerateStably() uses it to decide whether a host
    // copy will still exist when a dropped descendant replays.
    lastUsePos_.assign(graph_.numTensors(), -1);
    for (std::size_t p = 0; p < schedule_.size(); ++p) {
        for (TensorId in : graph_.op(schedule_[p]).inputs)
            lastUsePos_[in] = static_cast<int>(p);
    }
    // Dynamic graphs: slice the global topological order per variant. A
    // variant slice is an order-preserving filter of schedule_, so within-
    // variant relative positions (all lastUsePos_ comparisons ever made)
    // are unchanged by the slicing.
    if (graph_.dynamic()) {
        const auto &vars = graph_.variants();
        std::vector<std::size_t> variantOf(graph_.numOps(), vars.size());
        for (std::size_t v = 0; v < vars.size(); ++v) {
            for (OpId id : vars[v].ops) {
                if (variantOf[id] != vars.size())
                    panic("op {} belongs to two variants",
                          graph_.op(id).name);
                variantOf[id] = v;
            }
        }
        variantSchedules_.assign(vars.size(), {});
        for (OpId id : schedule_) {
            if (variantOf[id] == vars.size())
                panic("op {} of dynamic graph {} belongs to no variant",
                      graph_.op(id).name, graph_.name());
            variantSchedules_[variantOf[id]].push_back(id);
        }
    }
    setupWeights();
    if (policy_)
        policy_->attach(graph_, schedule_, config_);
    setupDone_ = true;
}

void
Executor::setActiveVariant(std::size_t variant)
{
    if (!setupDone_)
        setup();
    if (!graph_.dynamic()) {
        if (variant == 0)
            return;
        panic("setActiveVariant({}) on static graph {}", variant,
              graph_.name());
    }
    if (variant >= graph_.variants().size())
        panic("variant {} out of range ({} variants)", variant,
              graph_.variants().size());
    activeVariant_ = variant;
    if (policy_)
        policy_->onShapeClass(variant);
}

const std::vector<OpId> &
Executor::activeSchedule() const
{
    return graph_.dynamic() ? variantSchedules_[activeVariant_] : schedule_;
}

void
Executor::setupWeights()
{
    for (const auto &t : graph_.tensors()) {
        if (t.kind != TensorKind::Weight)
            continue;
        // Weights are permanent: pack them at the bottom of the arena so
        // they never fragment the large-tensor region at the top.
        auto h = mem_.allocate(0, t.bytes, BfcAllocator::Placement::Low);
        if (!h) {
            throw OomError(
                fmt("weights alone exceed GPU memory (placing {})",
                    describeTensor(t)),
                t.bytes, oomContext(t.id));
        }
        TensorState &st = state(t.id);
        st.gpuHandle = *h;
        st.status = TensorStatus::In;
        setWeightVersion(t.id, 0);
    }
}

void
Executor::setWeightVersion(TensorId id, int version)
{
    TensorState &st = state(id);
    st.weightVersion = version;
    st.fingerprint = hashCombine(hashString(graph_.tensor(id).name.c_str()),
                                 static_cast<std::uint64_t>(version));
    st.expectedFp = st.fingerprint;
}

void
Executor::abortIteration()
{
    // Fence the retry behind everything the aborted attempt put in flight:
    // the compute stream and both PCIe lanes (a lane's drain tick covers
    // every transfer it ever carried, including half-finished swap-ins
    // whose buffers are freed below). Without the fence the retried
    // iteration's ops start at compute busyUntil and can rewind behind the
    // aborted attempt's transfer events, overlapping them on reused
    // buffers.
    clock_ = std::max(clock_, compute_.busyUntil());
    clock_ = std::max(clock_, pcie_.laneBusyUntil(CopyDir::DeviceToHost));
    clock_ = std::max(clock_, pcie_.laneBusyUntil(CopyDir::HostToDevice));
    mem_.drainAll();
    for (std::size_t i = 0; i < states_.size(); ++i) {
        auto id = static_cast<TensorId>(i);
        TensorState &st = states_[i];
        if (graph_.tensor(id).kind == TensorKind::Weight) {
            st.pinCount = 0;
            continue;
        }
        if (st.gpuHandle) {
            mem_.freeNow(clock_, *st.gpuHandle);
            st.gpuHandle.reset();
        }
        retireHostCopy(id);
        closePhase(id, clock_);
        st.status = TensorStatus::Out;
        st.pinCount = 0;
        st.accessCount = 0;
    }
    compute_.fence(clock_);
    pcie_.lane(CopyDir::DeviceToHost).fence(clock_);
    pcie_.lane(CopyDir::HostToDevice).fence(clock_);
    computeBarrier_ = clock_;
    currentOp_ = kInvalidOp;
    mem_.gpu().checkInvariants();
    obs_.tracer.emit(
        {.label = obs::Label::IterAbort, .ts = clock_, .number = iteration_});
    obs_.metrics.add(obs::Metric::IterAborts);
}

IterationStats
Executor::runIteration()
{
    if (!setupDone_)
        setup();
    beginIterationState();
    for (OpId id : activeSchedule())
        runOp(id);
    finishIterationState();
    return stats_;
}

void
Executor::beginIterationState()
{
    stats_ = IterationStats{};
    stats_.iteration = iteration_;
    stats_.begin = std::max(clock_, compute_.busyUntil());
    iterAccessHash_ = 0;
    mem_.gpu().resetPeak();
    for (auto &st : states_)
        st.accessCount = 0;
    obs_.tracer.emit({.label = obs::Label::IterBegin,
                      .ts = stats_.begin,
                      .number = iteration_});
    if (graph_.dynamic()) {
        obs_.tracer.emit({.label = obs::Label::DriftClass,
                          .ts = stats_.begin,
                          .number = static_cast<std::int64_t>(
                              activeVariant_)});
        // Gauge, not counter: the class index is non-monotonic and counter
        // deltas are unsigned in the replay digest machinery.
        obs_.metrics.set(obs::Metric::DriftClass,
                         static_cast<double>(activeVariant_));
    }
    if (policy_)
        policy_->beginIteration(*this);
}

void
Executor::finishIterationState()
{
    clock_ = std::max(clock_, compute_.busyUntil());
    // Reclaim anything a policy left behind (host copies of tensors whose
    // last access was served from GPU, stale eviction markers, ...).
    for (std::size_t i = 0; i < states_.size(); ++i) {
        auto id = static_cast<TensorId>(i);
        TensorState &st = states_[i];
        if (graph_.tensor(id).kind == TensorKind::Weight)
            continue;
        if (st.gpuHandle) {
            warn("tensor {} still resident at iteration end",
                 graph_.tensor(id).name);
            mem_.freeAt(std::max(clock_, st.swapOutDone), *st.gpuHandle);
            st.gpuHandle.reset();
        }
        retireHostCopy(id);
        closePhase(id, clock_);
        st.status = TensorStatus::Out;
    }
    stats_.end = clock_;
    stats_.peakGpuBytes = mem_.gpu().stats().peakBytesInUse;
    if (policy_)
        policy_->endIteration(*this, stats_);
    feedIterationMetrics();
    obs_.metrics.snapshotIteration(iteration_);
    if (obs_.tracing()) {
        obs_.tracer.emit({.label = obs::Label::Iteration,
                          .ts = stats_.begin,
                          .dur = stats_.duration(),
                          .number = iteration_});
        // After the marker, so the count covers every record this
        // iteration could have pushed out of the ring.
        obs_.metrics.setCounter(obs::Metric::TraceDropped,
                                obs_.tracer.dropped());
    }
    ++iteration_;
}

std::string
OomContext::describe(std::uint64_t requested_bytes) const
{
    int frag_pct = static_cast<int>(fragmentation * 100.0 + 0.5);
    std::string s = fmt("OOM post-mortem (iteration {}):\n", iteration);
    s += fmt("  request: {}", formatBytes(requested_bytes));
    if (tensor != kInvalidTensor)
        s += fmt(" for tensor '{}' (id {})", tensorName, tensor);
    s += "\n";
    if (op != kInvalidOp)
        s += fmt("  executing op: '{}' (id {})\n", opName, op);
    s += fmt("  gpu: {} in use, {} free, largest free chunk {}, "
             "{} free chunks, fragmentation {}%\n",
             formatBytes(gpuBytesInUse), formatBytes(gpuBytesFree),
             formatBytes(largestFreeChunk), freeChunkCount, frag_pct);
    s += fmt("  host pool: {} / {} in use", formatBytes(hostBytesInUse),
             formatBytes(hostCapacity));
    return s;
}

OomContext
Executor::oomContext(TensorId tensor) const
{
    OomContext ctx;
    ctx.op = currentOp_;
    if (currentOp_ != kInvalidOp)
        ctx.opName = graph_.op(currentOp_).name;
    ctx.tensor = tensor;
    if (tensor != kInvalidTensor)
        ctx.tensorName = graph_.tensor(tensor).name;
    const BfcStats &bfc = mem_.gpu().stats();
    ctx.gpuBytesInUse = bfc.bytesInUse;
    ctx.gpuBytesFree = mem_.gpu().bytesFree();
    ctx.largestFreeChunk = bfc.largestFreeChunk;
    ctx.freeChunkCount = bfc.freeChunkCount;
    ctx.fragmentation = mem_.gpu().fragmentation();
    ctx.hostBytesInUse = mem_.host().bytesInUse();
    ctx.hostCapacity = mem_.host().capacity();
    ctx.iteration = iteration_;
    return ctx;
}

MemHandle
Executor::allocateOrDie(Tick &at, std::uint64_t bytes,
                        const std::string &what, TensorId tensor)
{
    while (true) {
        Tick t0 = at;
        if (auto h = mem_.allocateWaiting(at, bytes)) {
            stats_.allocStall += at - t0;
            if (at > t0) {
                obs_.tracer.emit({.label = obs::Label::OomWaitFree,
                                  .ts = t0,
                                  .dur = at - t0,
                                  .bytes = bytes});
            }
            clock_ = std::max(clock_, at);
            return *h;
        }
        at = std::max(at, t0);
        clock_ = std::max(clock_, at);
        if (policy_ && policy_->onAllocFailure(*this, bytes)) {
            obs_.tracer.emit({.label = obs::Label::OomPolicyAssist,
                              .ts = at,
                              .bytes = bytes});
            obs_.metrics.add(obs::Metric::OomPolicyAssists);
            continue;
        }
        obs_.tracer.emit(
            {.label = obs::Label::OomRaise, .ts = at, .bytes = bytes});
        obs_.metrics.add(obs::Metric::OomRaises);
        throw OomError(
            fmt("OOM allocating {} for {} (in use {}, largest free {})",
                formatBytes(bytes), what,
                formatBytes(mem_.gpu().bytesInUse()),
                formatBytes(mem_.gpu().stats().largestFreeChunk)),
            bytes, oomContext(tensor));
    }
}

Tick
Executor::ensureResident(TensorId id, Tick at)
{
    TensorState &st = state(id);
    switch (effectiveStatus(st, at)) {
      case TensorStatus::In:
        if (st.status == TensorStatus::SwappingIn) {
            // Prefetch completed before this access arrived: the transfer
            // fully hid. Normalize (the SwappingIn case does the same when
            // the stall is zero) and close the SWAPPING_IN phase.
            st.status = TensorStatus::In;
            notePhase(id, obs::Label::PhaseIn, st.swapInReady);
        }
        return at;
      case TensorStatus::SwappingOut:
        // SwappingOut: chunk is freed only at transfer completion, so the
        // data is still readable on-device until then.
        return at;

      case TensorStatus::SwappingIn: {
          Tick ready = std::max(at, st.swapInReady);
          if (ready > at) {
              stats_.prefetchStall += ready - at;
              noteStall(id, at, ready - at);
          }
          st.status = TensorStatus::In;
          notePhase(id, obs::Label::PhaseIn, ready);
          return ready;
      }

      case TensorStatus::Out: {
          if (st.hostHandle == 0) {
              panic("tensor {} accessed while absent with no host copy",
                    graph_.tensor(id).name);
          }
          // On-demand swap-in (passive mode / missed prefetch).
          Tick t0 = at;
          MemHandle h = allocateOrDie(at, allocBytes(id),
                                      graph_.tensor(id).name, id);
          obs_.tracer.emit(
              {.label = obs::Label::OnDemandSwapIn, .ts = at, .tensor = id});
          Tick done = swapIn(id, h, at, obs::Label::SwapIn);
          st.status = TensorStatus::In;
          obs_.metrics.add(obs::Metric::SwapOndemandCount);
          notePhase(id, obs::Label::PhaseIn, done);
          noteStall(id, t0, done - t0);
          return done;
      }

      case TensorStatus::Recompute:
        return recomputeTensor(id, at);
    }
    panic("unreachable tensor status");
}

void
Executor::noteStall(TensorId id, Tick from, Tick stall)
{
    stats_.inputStall += stall;
    obs_.tracer.emit(
        {.label = obs::Label::Stall, .ts = from, .dur = stall, .tensor = id});
    if (policy_)
        policy_->onBackAccessStall(*this, id, stall);
}

Tick
Executor::swapIn(TensorId id, MemHandle h, Tick ready, obs::Label label)
{
    TensorState &st = state(id);
    std::uint64_t bytes = allocBytes(id);
    Tick done = pcie_.transfer(CopyDir::HostToDevice, wireBytes(bytes), ready,
                               label, id);
    st.gpuHandle = h;
    st.swapInReady = done;
    st.fingerprint = st.hostFp;
    ++stats_.swapInCount;
    stats_.swapInBytes += bytes;
    noteOutEnd(id, obs::Metric::TensorInBytes);
    notePhase(id, obs::Label::PhaseSwappingIn,
              pcie_.lastStart(CopyDir::HostToDevice));
    return done;
}

Tick
Executor::recomputeTensor(TensorId target, Tick at)
{
    // --- 1. Plan: ops whose replay regenerates `target` from residents ---
    std::vector<OpId> plan;
    plan.reserve(16);
    std::vector<bool> in_plan(graph_.numOps(), false);

    std::function<void(TensorId)> need = [&](TensorId tid) {
        TensorState &st = state(tid);
        TensorStatus s = effectiveStatus(st, at);
        if (s == TensorStatus::In || s == TensorStatus::SwappingOut ||
            s == TensorStatus::SwappingIn) {
            return; // resident source
        }
        if (s == TensorStatus::Out && st.hostHandle != 0)
            return; // swappable source; fetched on demand during replay
        OpId prod = graph_.tensor(tid).producer;
        if (prod == kInvalidOp)
            panic("recompute of {} reached an unproduced tensor",
                  graph_.tensor(tid).name);
        const Operation &op = graph_.op(prod);
        if (!op.recomputable)
            panic("recompute of {} requires non-recomputable op {}",
                  graph_.tensor(tid).name, op.name);
        if (in_plan[prod])
            return;
        in_plan[prod] = true;
        for (TensorId in : op.inputs)
            need(in);
        plan.push_back(prod);
    };
    need(target);
    // Op ids are assigned in construction order, which is topological for
    // builder-produced graphs; sorting restores dependency order.
    std::sort(plan.begin(), plan.end());

    if (plan.empty())
        panic("recompute plan for {} is empty", graph_.tensor(target).name);
    obs_.metrics.observe(obs::Metric::RecomputeChainOps, plan.size());

    // Tensors kept alive only as replay intermediates (no scheduled uses
    // left) and tensors with future uses retained by collective
    // recomputation; both are released under memory pressure — the paper's
    // "kept if the memory is enough; otherwise released" rule (§5.3).
    std::vector<TensorId> scratch;
    scratch.reserve(plan.size());
    std::vector<TensorId> kept;
    kept.reserve(plan.size());

    auto release_from = [&](std::vector<TensorId> &pool, Tick when,
                            std::size_t plan_pos) {
        std::unordered_set<TensorId> still_needed;
        for (std::size_t p = plan_pos; p < plan.size(); ++p) {
            for (TensorId in : graph_.op(plan[p]).inputs)
                still_needed.insert(in);
        }
        bool any = false;
        for (auto it = pool.begin(); it != pool.end();) {
            if (still_needed.count(*it) == 0) {
                if (state(*it).gpuHandle) {
                    dropChunk(*it, when);
                    any = true;
                }
                it = pool.erase(it);
            } else {
                ++it;
            }
        }
        return any;
    };

    // --- 2. Replay ---
    for (std::size_t p = 0; p < plan.size(); ++p) {
        const Operation &op = graph_.op(plan[p]);
        Launch launch = beginLaunch(op, at, false);
        at = launch.at;

        for (TensorId out : op.outputs) {
            TensorState &ost = state(out);
            if (ost.gpuHandle)
                continue; // already live (multi-output op partially kept)
            auto h = mem_.allocate(at, allocBytes(out));
            if (!h && release_from(scratch, at, p))
                h = mem_.allocate(at, allocBytes(out));
            if (!h && release_from(kept, at, p))
                h = mem_.allocate(at, allocBytes(out));
            if (!h) {
                clock_ = std::max(clock_, at);
                h = allocateOrDie(at, allocBytes(out),
                                  graph_.tensor(out).name, out);
            }
            ost.gpuHandle = *h;
            ost.status = TensorStatus::In;
            ost.swapInReady = 0;
            notePhase(out, obs::Label::PhaseIn, at);
        }

        Tick dur = kernelDuration(op, launch.fast);
        Tick end = compute_.enqueue(
            at, dur,
            {.label = obs::Label::Recompute, .tensor = target, .op = plan[p]});
        at = end;
        stats_.recomputeBusy += dur;
        ++stats_.recomputeOps;
        if (launch.ws)
            mem_.freeAt(end, *launch.ws);
        pinOperands(op, -1);

        for (TensorId out : op.outputs) {
            // Regenerated data: the fingerprint recorded at production
            // stays the reference its consumers check against.
            TensorState &ost = state(out);
            ost.fingerprint = lineageFingerprint(out, op);
            if (out == target)
                continue;
            if (ost.remainingUses > 0) {
                if (config_.collectiveRecompute) {
                    // Keep it: one replay satisfies several targets (§5.3).
                    kept.push_back(out);
                    continue;
                }
                // Non-collective: release; it will be replayed again later.
                dropChunk(out, end);
            } else {
                scratch.push_back(out);
            }
        }
    }

    release_from(scratch, at, plan.size());
    ++stats_.recomputedTensors;
    clock_ = std::max(clock_, at);
    return at;
}

std::uint64_t
Executor::lineageFingerprint(TensorId id, const Operation &op) const
{
    std::uint64_t fp = hashString(op.name.c_str());
    fp = hashCombine(fp, hashString(graph_.tensor(id).name.c_str()));
    if (op.category == OpCategory::Source) {
        // Fresh batch each iteration: not reproducible by replay.
        fp = hashCombine(fp, static_cast<std::uint64_t>(iteration_));
    }
    for (TensorId in : op.inputs)
        fp = hashCombine(fp, state(in).fingerprint);
    return fp;
}

void
Executor::verifyFingerprint(TensorId id, const Operation &op)
{
    obs_.metrics.add(obs::Metric::FingerprintChecks);
    const TensorState &st = state(id);
    if (st.fingerprint != st.expectedFp) {
        panic("fingerprint mismatch on {} consumed by {}: data {} expected "
              "{} (stale or corrupted regeneration)",
              graph_.tensor(id).name, op.name, st.fingerprint,
              st.expectedFp);
    }
}

Executor::Launch
Executor::beginLaunch(const Operation &op, Tick at, bool track_clock)
{
    pinOperands(op, 1);
    Launch launch;
    for (TensorId in : op.inputs) {
        at = ensureResident(in, at);
        if (track_clock)
            clock_ = std::max(clock_, at);
    }
    for (TensorId in : op.inputs)
        verifyFingerprint(in, op);
    launch.at = at;
    if (op.fastWorkspaceBytes > 0) {
        launch.ws = mem_.allocate(at, op.fastWorkspaceBytes);
        if (!launch.ws) {
            launch.fast = false;
            ++stats_.fallbackKernels;
        }
    }
    return launch;
}

void
Executor::pinOperands(const Operation &op, int delta)
{
    for (TensorId in : op.inputs)
        state(in).pinCount += delta;
    for (TensorId out : op.outputs)
        state(out).pinCount += delta;
}

Tick
Executor::kernelDuration(const Operation &op, bool fast)
{
    Tick dur = cost_.opDuration(op, fast);
    if (faults_.enabled())
        dur = faults_.jitterKernel(dur);
    return dur;
}

void
Executor::runOp(OpId id)
{
    const Operation &op = graph_.op(id);
    currentOp_ = id;

    Tick t = std::max(compute_.busyUntil(), computeBarrier_);
    if (config_.eagerMode) {
        hostClock_ = std::max(hostClock_, t > kEagerHostOverhead
                                              ? t - kEagerHostOverhead
                                              : 0);
        hostClock_ += kEagerHostOverhead;
        t = std::max(t, hostClock_);
    }
    clock_ = std::max(clock_, t);

    // (1) Inputs resident; (2) workspace.
    Launch launch = beginLaunch(op, t, true);
    t = launch.at;

    // (3) Outputs. Graph mode forwards the input buffer to outputs[0] when
    // the op is in-place-eligible and this is the input's last use
    // (TensorFlow's buffer forwarding; eager mode lacks it).
    bool aliased = false;
    if (!config_.eagerMode && op.inplaceEligible && !op.inputs.empty() &&
        !op.outputs.empty()) {
        TensorId in0 = op.inputs[0];
        TensorId out0 = op.outputs[0];
        TensorState &ist = state(in0);
        const TensorDesc &in_desc = graph_.tensor(in0);
        bool movable = (in_desc.kind == TensorKind::FeatureMap ||
                        in_desc.kind == TensorKind::Gradient) &&
                       graph_.consumers(in0).size() == 1 &&
                       ist.remainingUses == 1 && ist.gpuHandle &&
                       effectiveStatus(ist, t) == TensorStatus::In &&
                       allocBytes(out0) <=
                           mem_.gpu().allocationSize(*ist.gpuHandle);
        if (movable) {
            TensorState &ost = state(out0);
            ost.gpuHandle = ist.gpuHandle;
            ist.gpuHandle.reset();
            ost.status = TensorStatus::In;
            ost.swapInReady = 0;
            ost.remainingUses = usesPerIteration_[out0];
            aliased = true;
            ++stats_.inplaceForwards;
            closePhase(in0, t);
            notePhase(out0, obs::Label::PhaseIn, t);
        }
    }
    for (std::size_t oi = 0; oi < op.outputs.size(); ++oi) {
        if (aliased && oi == 0)
            continue;
        TensorId out = op.outputs[oi];
        TensorState &st = state(out);
        if (st.gpuHandle) {
            panic("output {} already allocated (status {}, uses {}, host "
                  "handle {})",
                  graph_.tensor(out).name, tensorStatusName(st.status),
                  st.remainingUses, st.hostHandle);
        }
        MemHandle h = allocateOrDie(t, allocBytes(out),
                                    graph_.tensor(out).name, out);
        st.gpuHandle = h;
        st.status = TensorStatus::In;
        st.swapInReady = 0;
        st.remainingUses = usesPerIteration_[out];
        notePhase(out, obs::Label::PhaseIn, t);
    }

    // (4) Kernel.
    Tick dur = kernelDuration(op, launch.fast);
    Tick end =
        compute_.enqueue(t, dur, {.label = obs::Label::Kernel, .op = id});
    Tick start = end - dur;
    currentOpEnd_ = end;
    stats_.kernelBusy += dur;
    clock_ = std::max(clock_, start);

    // (5) Fingerprints + weight versioning.
    for (TensorId out : op.outputs) {
        TensorState &ost = state(out);
        ost.fingerprint = lineageFingerprint(out, op);
        ost.expectedFp = ost.fingerprint;
    }
    if (op.category == OpCategory::Update) {
        for (TensorId in : op.inputs) {
            if (graph_.tensor(in).kind == TensorKind::Weight)
                setWeightVersion(in, state(in).weightVersion + 1);
        }
    }

    // (6) Access events: inputs stamped at kernel start, outputs at end.
    for (TensorId in : op.inputs)
        recordAccess(in, start, false, id);
    for (TensorId out : op.outputs)
        recordAccess(out, end, true, id);

    if (launch.ws)
        mem_.freeAt(end, *launch.ws);

    // (7) Refcounts; release tensors with no scheduled uses left.
    pinOperands(op, -1);
    for (TensorId in : op.inputs) {
        TensorState &st = state(in);
        if (graph_.tensor(in).kind == TensorKind::Weight)
            continue;
        if (--st.remainingUses <= 0)
            releaseIfDead(in, end);
    }
    for (TensorId out : op.outputs) {
        if (usesPerIteration_[out] == 0 &&
            graph_.tensor(out).kind != TensorKind::Weight)
            releaseIfDead(out, end);
    }

    if (policy_)
        policy_->afterOp(*this, id, end);

    clock_ = std::max(clock_, end);
    currentOp_ = kInvalidOp;
}

void
Executor::recordAccess(TensorId id, Tick when, bool is_output, OpId op)
{
    TensorState &st = state(id);
    ++st.accessCount;
    if (replayArmed_) {
        // Iteration-relative tick: unsigned wrap when a kernel start
        // precedes stats_.begin is deterministic and shift-invariant.
        std::uint64_t h = iterAccessHash_;
        h = hashCombine(h, static_cast<std::uint64_t>(id));
        h = hashCombine(h, (static_cast<std::uint64_t>(st.accessCount) << 1) |
                               (is_output ? 1u : 0u));
        h = hashCombine(h, when - stats_.begin);
        h = hashCombine(h, static_cast<std::uint64_t>(op));
        iterAccessHash_ = h;
    }
    obs_.tracer.emit({.label = is_output ? obs::Label::Write
                                         : obs::Label::Read,
                      .ts = when,
                      .tensor = id,
                      .op = op,
                      .value = static_cast<double>(st.accessCount)});
    if (!policy_)
        return;
    AccessEvent ev;
    ev.tensor = id;
    ev.accessIndex = st.accessCount;
    ev.when = when;
    ev.isOutput = is_output;
    ev.op = op;
    policy_->onAccess(*this, ev);
}

void
Executor::releaseIfDead(TensorId id, Tick at)
{
    TensorState &st = state(id);
    if (st.gpuHandle) {
        // Data may still feed an in-flight D2H transfer, or an in-flight
        // H2D fill may still be writing the chunk; free at whichever is
        // latest.
        Tick when = std::max(at, st.status == TensorStatus::SwappingOut
                                     ? st.swapOutDone
                                     : at);
        when = std::max(when, st.swapInReady);
        mem_.freeAt(when, *st.gpuHandle);
        st.gpuHandle.reset();
    }
    retireHostCopy(id);
    closePhase(id, at);
    st.status = TensorStatus::Out;
}

void
Executor::retireHostCopy(TensorId id)
{
    TensorState &st = state(id);
    if (st.hostHandle == 0)
        return;
    noteOutEnd(id, obs::Metric::TensorRetiredHostBytes);
    mem_.host().deallocate(st.hostHandle);
    st.hostHandle = 0;
}

void
Executor::dropChunk(TensorId id, Tick when)
{
    TensorState &st = state(id);
    mem_.freeAt(when, *st.gpuHandle);
    st.gpuHandle.reset();
    st.status = st.hostHandle != 0 ? TensorStatus::Out
                                   : TensorStatus::Recompute;
    notePhase(id,
              st.hostHandle != 0 ? obs::Label::PhaseOut
                                 : obs::Label::PhaseDropped,
              when);
}

// --- observability helpers (pure observers: never touch simulated time) ---

void
Executor::notePhase(TensorId id, obs::Label phase, Tick at)
{
    if (!obs_.tracing())
        return;
    TensorState &st = state(id);
    // A phase can begin in the future (a transfer's completion time); the
    // successor must not open before it closed, or the async spans overlap.
    if (st.obsPhase)
        at = std::max(at, st.obsPhaseAt);
    closePhase(id, at);
    st.obsPhase = phase;
    st.obsPhaseAt = at;
    obs_.tracer.emit(
        {.label = phase, .ts = at, .tensor = id, .bytes = allocBytes(id)});
}

void
Executor::closePhase(TensorId id, Tick at)
{
    if (!obs_.tracing())
        return;
    TensorState &st = state(id);
    if (!st.obsPhase)
        return;
    obs_.tracer.emit({.label = *st.obsPhase,
                      .ts = std::max(at, st.obsPhaseAt),
                      .tensor = id,
                      .closes = true});
    st.obsPhase.reset();
}

void
Executor::noteOut(TensorId id)
{
    TensorState &st = state(id);
    if (st.outWithHost)
        return;
    st.outWithHost = true;
    obs_.metrics.add(obs::Metric::TensorOutBytes, allocBytes(id));
}

void
Executor::noteOutEnd(TensorId id, obs::Metric metric)
{
    TensorState &st = state(id);
    if (!st.outWithHost)
        return;
    st.outWithHost = false;
    obs_.metrics.add(metric, allocBytes(id));
}

void
Executor::feedIterationMetrics()
{
    if (!obs_.metricsOn())
        return;
    using obs::Metric;
    auto &m = obs_.metrics;
    auto u64 = [](auto v) { return static_cast<std::uint64_t>(v); };
    m.add(Metric::SwapOutBytes, stats_.swapOutBytes);
    m.add(Metric::SwapInBytes, stats_.swapInBytes);
    m.add(Metric::SwapOutCount, u64(stats_.swapOutCount));
    m.add(Metric::SwapInCount, u64(stats_.swapInCount));
    m.add(Metric::StallInputNs, stats_.inputStall);
    m.add(Metric::StallAllocNs, stats_.allocStall);
    m.add(Metric::ComputeKernelNs, stats_.kernelBusy);
    m.add(Metric::ComputeRecomputeNs, stats_.recomputeBusy);
    m.add(Metric::RecomputeTensors, u64(stats_.recomputedTensors));
    m.add(Metric::RecomputeOps, u64(stats_.recomputeOps));
    m.add(Metric::DropTensors, u64(stats_.droppedTensors));
    m.add(Metric::DropBytes, stats_.droppedBytes);
    m.add(Metric::InplaceForwards, u64(stats_.inplaceForwards));
    m.add(Metric::KernelFallbacks, u64(stats_.fallbackKernels));
    m.add(Metric::OomEvictions, u64(stats_.oomEvictions));
    m.add(Metric::PrefetchBusyNs, stats_.prefetchBusy);
    m.add(Metric::PrefetchStallNs, stats_.prefetchStall);

    // Raw allocator counters don't advance during synthesized iterations,
    // whose replayed deltas the registry already holds: feed only what
    // the allocators counted since the last feed.
    const BfcStats &bfc = mem_.gpu().stats();
    m.add(Metric::BfcSplits, bfc.splitCount - fedBfc_.splitCount);
    m.add(Metric::BfcMerges, bfc.mergeCount - fedBfc_.mergeCount);
    m.add(Metric::BfcFailedAllocs, bfc.failedAllocs - fedBfc_.failedAllocs);
    fedBfc_ = bfc;
    m.set(Metric::BfcFragmentation, mem_.gpu().fragmentation());
    m.set(Metric::GpuPeakBytes, static_cast<double>(stats_.peakGpuBytes));
    std::uint64_t host_failed = mem_.host().failedAllocs();
    m.add(Metric::HostFailedAllocs, host_failed - fedHostFailedAllocs_);
    fedHostFailedAllocs_ = host_failed;

    if (faults_.enabled()) {
        const faults::FaultStats &fs = faults_.stats();
        m.setCounter(Metric::FaultPcieDegradedTransfers, fs.degradedTransfers);
        m.setCounter(Metric::FaultKernelJittered, fs.jitteredKernels);
        m.setCounter(Metric::FaultHostRejectCount, fs.hostRejects);
        m.setCounter(Metric::FaultSwapFailures, fs.swapAttemptFailures);
        m.setCounter(Metric::RecoverySwapRetries, fs.swapRetries);
        m.setCounter(Metric::RecoverySwapForced, fs.swapForced);
        m.setCounter(Metric::RecoveryDropFallbackCount, fs.dropFallbacks);
        m.setCounter(Metric::RecoverySwapSkipCount, fs.swapSkips);
        m.setCounter(Metric::RecoveryPrefetchMissCount, fs.prefetchMisses);
        m.setCounter(Metric::RecoveryRemeasureCount, fs.remeasures);
        m.setCounter(Metric::RecoveryFeedbackShiftCount, fs.feedbackShifts);
    }

    double hidden = 1.0;
    if (stats_.prefetchBusy > 0) {
        hidden = 1.0 - static_cast<double>(stats_.prefetchStall) /
                           static_cast<double>(stats_.prefetchBusy);
        hidden = std::min(1.0, std::max(0.0, hidden));
    }
    m.set(Metric::PrefetchHiddenRatio, hidden);
    m.set(Metric::IterDurationNs, static_cast<double>(stats_.duration()));
}

// --- capureplay ---

void
Executor::replayApply(const ReplayShift &shift)
{
    clock_ += shift.dt;
    hostClock_ += shift.dt;
    computeBarrier_ += shift.dt;
    compute_.replayShift(shift.dt, shift.computeBusy);
    pcie_.replayShift(shift.dt, shift.d2hBusy, shift.h2dBusy);
    mem_.shiftPendingFrees(shift.dt);
    ++iteration_;
}

void
Executor::replayBumpWeight(TensorId id, int bumps)
{
    if (bumps <= 0)
        return;
    // The fingerprint depends only on the final version, not on the
    // bump-by-bump path runOp's Update handling takes.
    setWeightVersion(id, state(id).weightVersion + bumps);
}

void
Executor::replayRestagePending(const std::vector<PendingFree> &frees)
{
    mem_.restagePending(frees);
    fedBfc_ = mem_.gpu().stats();
}

// --- ExecContext queries ---

TensorStatus
Executor::status(TensorId id) const
{
    return effectiveStatus(state(id), clock_);
}

int
Executor::accessCount(TensorId id) const
{
    return state(id).accessCount;
}

bool
Executor::isPinned(TensorId id) const
{
    return state(id).pinCount > 0;
}

std::uint64_t
Executor::tensorBytes(TensorId id) const
{
    return allocBytes(id);
}

std::uint64_t
Executor::gpuCapacity() const
{
    return mem_.gpu().capacity();
}

std::uint64_t
Executor::hostCapacity() const
{
    return mem_.host().capacity();
}

bool
Executor::canAllocateNow(std::uint64_t bytes)
{
    return mem_.canAllocate(clock_, bytes);
}

bool
Executor::canRegenerateStably(TensorId id)
{
    // Mirror of recomputeTensor()'s plan DFS, but total: false instead of
    // panic on a dead end. A tensor counts as regenerable if a replay can
    // reach weights and host copies through recomputable ops, treating
    // `id` itself as absent.
    std::vector<TensorId> stack;
    stack.reserve(32);
    std::vector<bool> visited(graph_.numTensors(), false);
    stack.push_back(id);
    visited[id] = true;
    while (!stack.empty()) {
        TensorId tid = stack.back();
        stack.pop_back();
        const TensorState &st = state(tid);
        if (tid != id) {
            if (graph_.tensor(tid).kind == TensorKind::Weight)
                continue;
            // A host copy survives until its tensor's last scheduled use
            // (refcount death frees it). It is a durable replay source
            // only if that death comes no earlier than the last point at
            // which `id` could replay — its own last use.
            if (st.hostHandle != 0 && lastUsePos_[tid] >= lastUsePos_[id])
                continue;
        } else if (st.hostHandle != 0) {
            return true; // regenerates by swap-in regardless of lineage
        }
        OpId prod = graph_.tensor(tid).producer;
        if (prod == kInvalidOp || !graph_.op(prod).recomputable)
            return false;
        for (TensorId in : graph_.op(prod).inputs) {
            if (!visited[in]) {
                visited[in] = true;
                stack.push_back(in);
            }
        }
    }
    return true;
}

std::vector<TensorId>
Executor::victimsForContiguous(std::uint64_t bytes)
{
    // Map live chunk offsets to their owning tensors.
    std::unordered_map<std::uint64_t, TensorId> owner;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        if (states_[i].gpuHandle)
            owner[*states_[i].gpuHandle] = static_cast<TensorId>(i);
    }

    // Sliding window over the arena: the cheapest run of chunks (all free
    // or evictable) whose total size covers the request. Cost = evicted
    // bytes. Chunks owned by no tensor (workspaces, in-flight transfers),
    // by weights, or by pinned/non-resident tensors block a window.
    auto chunks = mem_.gpu().snapshot();
    auto evictable = [&](std::size_t i, TensorId &out_tensor) {
        auto it = owner.find(chunks[i].offset);
        if (it == owner.end())
            return false;
        TensorId tid = it->second;
        const TensorDesc &t = graph_.tensor(tid);
        if (t.kind == TensorKind::Weight)
            return false;
        const TensorState &st = state(tid);
        if (st.pinCount > 0 ||
            effectiveStatus(st, clock_) != TensorStatus::In)
            return false;
        out_tensor = tid;
        return true;
    };

    std::vector<TensorId> best;
    best.reserve(8);
    std::uint64_t best_cost = ~0ull;
    std::size_t lo = 0;
    std::uint64_t span = 0;
    std::uint64_t cost = 0;
    std::vector<TensorId> window;
    window.reserve(8);
    for (std::size_t hi = 0; hi < chunks.size(); ++hi) {
        TensorId tid = kInvalidTensor;
        bool pending_free =
            !chunks[hi].free && mem_.isFreePending(chunks[hi].offset);
        if (!chunks[hi].free && !pending_free && !evictable(hi, tid)) {
            // Blocker: restart past it. (Chunks with an in-flight deferred
            // free count as zero-cost — the allocation retry loop waits
            // for their transfers anyway.)
            lo = hi + 1;
            span = 0;
            cost = 0;
            window.clear();
            continue;
        }
        span += chunks[hi].size;
        if (!chunks[hi].free && !pending_free) {
            cost += chunks[hi].size;
            window.push_back(tid);
        }
        while (lo < hi && span - chunks[lo].size >= bytes) {
            span -= chunks[lo].size;
            if (!chunks[lo].free && !mem_.isFreePending(chunks[lo].offset)) {
                cost -= chunks[lo].size;
                window.erase(window.begin());
            }
            ++lo;
        }
        if (span >= bytes && cost < best_cost) {
            best_cost = cost;
            best = window;
        }
    }
    return best;
}

Tick
Executor::swapTime(std::uint64_t bytes) const
{
    return pcie_.transferTime(wireBytes(bytes));
}

Tick
Executor::memStallSoFar() const
{
    return stats_.inputStall + stats_.allocStall;
}

// --- ExecContext actions ---

Tick
Executor::opRetireTick() const
{
    return std::max(clock_, currentOp_ != kInvalidOp ? currentOpEnd_ : clock_);
}

std::uint64_t
Executor::hostStage(TensorId id, std::uint64_t wire_bytes)
{
    if (faults_.enabled() && faults_.hostTransientFail()) {
        ++faults_.stats().hostRejects;
        faults_.note(obs::Label::HostTransient, clock_, id, wire_bytes);
        obs_.metrics.add(obs::Metric::FaultHostRejects);
        return 0;
    }
    std::uint64_t h = mem_.host().allocate(wire_bytes);
    if (h == 0) {
        if (faults_.enabled()) {
            ++faults_.stats().hostRejects;
            faults_.note(obs::Label::HostExhausted, clock_, id, wire_bytes);
        }
        obs_.metrics.add(obs::Metric::FaultHostRejects);
    }
    return h;
}

void
Executor::swapToDropFallback(TensorId id)
{
    if (!canRegenerateStably(id)) {
        // Nothing safe to do: the tensor stays resident; passive mode will
        // look for another victim.
        ++faults_.stats().swapSkips;
        trace(obs::Label::SwapSkipped, id);
        obs_.metrics.add(obs::Metric::RecoverySwapSkipped);
        return;
    }
    ++faults_.stats().dropFallbacks;
    trace(obs::Label::SwapToDrop, id);
    obs_.metrics.add(obs::Metric::RecoveryDropFallbacks);
    evictDrop(id);
}

bool
Executor::swapOut(TensorId id, bool on_demand)
{
    TensorState &st = state(id);
    if (effectiveStatus(st, clock_) != TensorStatus::In || !st.gpuHandle)
        return false;
    // A decoupled copy waits for the evicting access's kernel to retire;
    // an on-demand one occupies the critical path now.
    Tick ready = on_demand ? clock_ : opRetireTick();
    // Clean victim: a host copy staged earlier this iteration is still
    // current (tensors are write-once between productions), so the device
    // chunk is a replica and the writeback is elided — free it once the
    // copy could have started and any in-flight fill completes. Copying
    // clean data back out would also leave the D2H unordered against the
    // swap-in that filled the buffer when no access consumed it.
    if (st.hostHandle != 0) {
        Tick when = std::max(ready, st.swapInReady);
        mem_.freeAt(when, *st.gpuHandle);
        st.gpuHandle.reset();
        st.status = TensorStatus::Out;
        ++stats_.elidedWritebacks;
        if (on_demand)
            ++stats_.oomEvictions;
        obs_.metrics.add(obs::Metric::SwapWritebackElided);
        noteOut(id);
        notePhase(id, obs::Label::PhaseOut, when);
        return true;
    }
    // Stage the pinned host destination before touching PCIe: staging
    // consumes no simulated time, and a failure must not abort the run.
    std::uint64_t bytes = allocBytes(id);
    std::optional<Tick> done;
    st.hostHandle = hostStage(id, wireBytes(bytes));
    if (st.hostHandle != 0) {
        done = pcie_.tryTransfer(
            CopyDir::DeviceToHost, wireBytes(bytes), ready,
            on_demand ? obs::Label::OomSwapOut : obs::Label::SwapOut, id);
        if (!done)
            retireHostCopy(id); // retries exhausted
    }
    if (!done) {
        if (!on_demand) // passive mode picks another disposal itself
            swapToDropFallback(id);
        return false;
    }
    st.hostFp = st.fingerprint;
    mem_.freeAt(*done, *st.gpuHandle);
    st.gpuHandle.reset();
    st.status = TensorStatus::SwappingOut;
    st.swapOutDone = *done;
    ++stats_.swapOutCount;
    if (on_demand)
        ++stats_.oomEvictions;
    stats_.swapOutBytes += bytes;
    noteOut(id);
    notePhase(id, obs::Label::PhaseSwappingOut,
              pcie_.lastStart(CopyDir::DeviceToHost));
    notePhase(id, obs::Label::PhaseOut, *done);
    return true;
}

void
Executor::evictSwapAsync(TensorId id)
{
    if (graph_.tensor(id).kind == TensorKind::Weight)
        panic("policy tried to evict weight {}", graph_.tensor(id).name);
    swapOut(id, false);
}

Tick
Executor::evictSwapBlocking(TensorId id)
{
    evictSwapAsync(id);
    const TensorState &st = state(id);
    if (st.status == TensorStatus::SwappingOut) {
        computeBarrier_ = std::max(computeBarrier_, st.swapOutDone);
        trace(obs::Label::BlockingSwap, id);
        obs_.metrics.add(obs::Metric::SwapBlockingCount);
    }
    return computeBarrier_;
}

bool
Executor::evictSwapSync(TensorId id)
{
    if (state(id).pinCount > 0 ||
        graph_.tensor(id).kind == TensorKind::Weight)
        return false;
    return swapOut(id, true);
}

void
Executor::evictDrop(TensorId id)
{
    TensorState &st = state(id);
    if (effectiveStatus(st, clock_) != TensorStatus::In || !st.gpuHandle)
        return;
    if (graph_.tensor(id).kind == TensorKind::Weight)
        panic("policy tried to drop weight {}", graph_.tensor(id).name);
    // Refuse drops that could never be regenerated: no producer, or a
    // non-recomputable producer (Source ops), with no host copy to fall
    // back on. Policies should not request these; the action stays safe
    // regardless.
    OpId producer = graph_.tensor(id).producer;
    if (st.hostHandle == 0 &&
        (producer == kInvalidOp || !graph_.op(producer).recomputable)) {
        return;
    }
    ++stats_.droppedTensors;
    stats_.droppedBytes += allocBytes(id);
    if (st.hostHandle != 0)
        noteOut(id);
    dropChunk(id, opRetireTick());
}

void
Executor::prefetchAsync(TensorId id)
{
    TensorState &st = state(id);
    TensorStatus s = effectiveStatus(st, clock_);
    // A trigger may fire while the swap-out is still draining; the fetch
    // then starts right after the host copy completes.
    Tick ready = clock_;
    if (s == TensorStatus::SwappingOut) {
        ready = std::max(ready, st.swapOutDone);
    } else if (s != TensorStatus::Out) {
        return; // already resident / being fetched / recompute-managed
    }
    if (st.hostHandle == 0)
        return;
    auto h = mem_.allocate(clock_, allocBytes(id));
    if (!h) {
        // Peak-memory window: degrade to on-demand at the back access
        // (passive-mode safety net).
        ++faults_.stats().prefetchMisses;
        obs_.metrics.add(obs::Metric::PrefetchMiss);
        trace(obs::Label::PrefetchMiss, id);
        return;
    }
    Tick done = swapIn(id, *h, ready, obs::Label::Prefetch);
    st.status = TensorStatus::SwappingIn;
    stats_.prefetchBusy += done - pcie_.lastStart(CopyDir::HostToDevice);
    obs_.metrics.add(obs::Metric::PrefetchCount);
}

obs::Names
traceNames(const Graph &graph)
{
    obs::Names names;
    for (const TensorDesc &t : graph.tensors())
        names.tensors.push_back(t.name);
    for (const Operation &op : graph.ops())
        names.ops.push_back(op.name);
    return names;
}

} // namespace capu
