/**
 * @file
 * The event vocabulary of the observability layer (capuscope).
 *
 * A TraceEvent is one timestamped fact about the simulation: a stream
 * occupancy interval, a PCIe transfer, a policy decision, a tensor
 * residency-phase transition, or a counter sample. Events are flat,
 * trivially copyable records: a typed Label plus tensor, op and numeric
 * ids. They carry no text. The label table below is the one place that
 * knows each label's exported name, category, track and phase; the Chrome
 * exporter is the only code that turns a label into text (formatLabel),
 * and the Chrome importer (prof/trace_io) the only code that parses text
 * back. Every other consumer switches on the label.
 *
 * Timestamps are simulation Ticks (integer nanoseconds). Recording an event
 * never advances or perturbs simulated time: the tracer is a pure observer,
 * and tests assert that `--obs-level=full` leaves every simulated timestamp
 * bit-identical to `--obs-level=off`.
 */

#ifndef CAPU_OBS_EVENT_HH
#define CAPU_OBS_EVENT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/units.hh"

namespace capu::obs
{

/**
 * Trace tracks (Chrome `tid`s under one `pid`). Compute and the two PCIe
 * lanes mirror the simulator's execution resources; Host carries the host
 * loop's stalls and OOM-protocol steps; Policy carries decision instants;
 * Memory carries allocator counter samples; Fault carries injected
 * capuchaos episodes and Recovery the pipeline's degradation reactions,
 * so chaos traces show cause and reaction side by side. Replay marks
 * synthesized steady-state iterations (capureplay) so a trace always
 * distinguishes executed from replayed time. Drift carries shape-class
 * switches and re-measurement episodes on dynamic workloads (capudrift),
 * making the cost of adaptation attributable.
 */
enum Track : std::uint32_t
{
    kTrackHost = 0,
    kTrackCompute = 1,
    kTrackD2H = 2,
    kTrackH2D = 3,
    kTrackPolicy = 4,
    kTrackMemory = 5,
    kTrackFault = 6,
    kTrackRecovery = 7,
    kTrackReplay = 8,
    kTrackDrift = 9,
};

/** How the event maps onto the Chrome trace_event phase model. */
enum class EventPhase : std::uint8_t
{
    Complete,  ///< interval with known start + duration ("X")
    Instant,   ///< zero-duration mark ("i")
    Counter,   ///< sampled value ("C")
    SpanBegin, ///< async span open ("b"), paired by (kind, tensor id)
    SpanEnd,   ///< async span close ("e")
};

/** The Chrome `ph` code of each EventPhase, indexed by its value. */
inline constexpr char kPhaseCodes[] = "XiCbe";

/** Semantic category; becomes the Chrome `cat` field. */
enum class EventKind : std::uint8_t
{
    Kernel,    ///< scheduled compute kernel
    Recompute, ///< lineage-replay kernel
    Transfer,  ///< PCIe copy (bytes = wire size)
    Sync,      ///< cross-stream synchronization (blocking swap barrier)
    Stall,     ///< host loop waiting (input residency, allocation)
    Access,    ///< tensor access event (value = access index)
    OomStep,   ///< step of the OOM protocol (wait-free / policy / raise)
    Decision,  ///< policy decision (evict, prefetch, feedback, passive)
    Plan,      ///< plan lifecycle (build, refine, in-trigger placement)
    Lifetime,  ///< tensor residency phase (async span, id = tensor)
    Sample,    ///< counter sample (value carries the measurement)
    Marker,    ///< structural marker (iteration boundaries, aborts)
    Fault,     ///< injected perturbation episode (capuchaos)
    Recovery,  ///< degradation/recovery reaction (retry, fallback, ...)
};

const char *eventKindName(EventKind kind);

/** What, besides its fixed text, a label's exported name carries. */
enum class LabelForm : std::uint8_t
{
    Plain,  ///< the text alone
    Tensor, ///< text + the tensor's name
    Op,     ///< text + the op's name
    Number, ///< text + TraceEvent::number (iteration, shape class)
    Phase,  ///< the tensor's name + ':' + text (residency-phase spans)
};

/**
 * The label table: one row per label, (id, exported text, kind, track,
 * phase, form); the track column names a Track without its kTrack prefix.
 * Lifetime rows are listed with SpanBegin; the closing half of a span is
 * the same label with TraceEvent::closes set.
 */
#define CAPU_TRACE_LABELS(X)                                                  \
    X(Kernel, "", Kernel, Compute, Complete, Op)                              \
    X(Recompute, "recompute:", Recompute, Compute, Complete, Op)              \
    X(SwapOut, "swapout:", Transfer, D2H, Complete, Tensor)                   \
    X(OomSwapOut, "oom-swapout:", Transfer, D2H, Complete, Tensor)            \
    X(SwapIn, "swapin:", Transfer, H2D, Complete, Tensor)                     \
    X(Prefetch, "prefetch:", Transfer, H2D, Complete, Tensor)                 \
    X(Stall, "stall:", Stall, Host, Complete, Tensor)                         \
    X(Read, "read", Access, Host, Instant, Plain)                             \
    X(Write, "write", Access, Host, Instant, Plain)                           \
    X(BlockingSwap, "sync.blocking-swap:", Sync, Host, Instant, Tensor)       \
    X(OomWaitFree, "oom.wait-free", OomStep, Host, Complete, Plain)           \
    X(OomPolicyAssist, "oom.policy-assist", OomStep, Host, Instant, Plain)    \
    X(OomRaise, "oom.raise", OomStep, Host, Instant, Plain)                   \
    X(IterBegin, "iter:", Marker, Host, Instant, Number)                      \
    X(Iteration, "iteration:", Marker, Host, Complete, Number)                \
    X(IterAbort, "iter.abort:", Marker, Host, Instant, Number)                \
    X(ReplayIter, "replay.iter:", Marker, Replay, Instant, Number)            \
    X(DriftClass, "drift.class:", Marker, Drift, Instant, Number)             \
    X(DriftNovel, "drift.novel", Decision, Drift, Instant, Plain)             \
    X(DriftRemeasure, "drift.remeasure", Recovery, Drift, Instant, Plain)     \
    X(GpuBytesInUse, "gpu.bytes_in_use", Sample, Memory, Counter, Plain)      \
    X(PlanBuild, "plan.build", Plan, Policy, Instant, Plain)                  \
    X(PlanInTrigger, "plan.intrigger", Plan, Policy, Instant, Plain)          \
    X(PlanRefine, "plan.refine", Plan, Policy, Instant, Plain)                \
    X(TriggerPrefetch, "trigger.prefetch", Decision, Policy, Instant, Plain)  \
    X(TriggerSwap, "trigger.evict.swap", Decision, Policy, Instant, Plain)    \
    X(TriggerDrop, "trigger.evict.drop", Decision, Policy, Instant, Plain)    \
    X(PassiveEvict, "passive.evict", Decision, Policy, Instant, Plain)        \
    X(PassiveRedrop, "passive.redrop", Decision, Policy, Instant, Plain)      \
    X(FeedbackShift, "feedback.shift", Decision, Policy, Instant, Plain)      \
    X(VdnnOffload, "vdnn.offload", Decision, Policy, Instant, Plain)          \
    X(VdnnPrefetch, "vdnn.prefetch", Decision, Policy, Instant, Plain)        \
    X(CkptDrop, "ckpt.drop", Decision, Policy, Instant, Plain)                \
    X(PcieDegraded, "fault.pcie.degraded", Fault, Fault, Instant, Plain)      \
    X(SwapAttempt, "fault.swap.attempt", Fault, Fault, Instant, Plain)        \
    X(HostTransient, "fault.host.transient:", Fault, Fault, Instant, Tensor)  \
    X(HostExhausted, "fault.host.exhausted:", Fault, Fault, Instant, Tensor)  \
    X(SwapRetry, "recovery.swap-retry", Recovery, Recovery, Instant, Plain)   \
    X(SwapForced, "recovery.swap-forced", Recovery, Recovery, Instant, Plain) \
    X(OnDemandSwapIn, "recovery.ondemand-swapin:",                            \
      Recovery, Recovery, Instant, Tensor)                                    \
    X(SwapSkipped, "recovery.swap-skipped:",                                  \
      Recovery, Recovery, Instant, Tensor)                                    \
    X(SwapToDrop, "recovery.swap-to-drop:",                                   \
      Recovery, Recovery, Instant, Tensor)                                    \
    X(PrefetchMiss, "recovery.prefetch-miss:",                                \
      Recovery, Recovery, Instant, Tensor)                                    \
    X(PassiveDrop, "recovery.passive-drop",                                   \
      Recovery, Recovery, Instant, Plain)                                     \
    X(Remeasure, "recovery.remeasure", Recovery, Recovery, Instant, Plain)    \
    X(PassiveFallback, "recovery.passive_fallback",                           \
      Recovery, Recovery, Instant, Plain)                                     \
    X(PhaseIn, "IN", Lifetime, Host, SpanBegin, Phase)                        \
    X(PhaseSwappingIn, "SWAPPING_IN", Lifetime, Host, SpanBegin, Phase)       \
    X(PhaseSwappingOut, "SWAPPING_OUT", Lifetime, Host, SpanBegin, Phase)     \
    X(PhaseOut, "OUT", Lifetime, Host, SpanBegin, Phase)                      \
    X(PhaseDropped, "DROPPED", Lifetime, Host, SpanBegin, Phase)

enum class Label : std::uint8_t
{
#define CAPU_LABEL_ID(id, text, kind, track, phase, form) id,
    CAPU_TRACE_LABELS(CAPU_LABEL_ID)
#undef CAPU_LABEL_ID
};

struct LabelInfo
{
    const char *text;
    EventKind kind;
    std::uint32_t track;
    EventPhase phase;
    LabelForm form;
};

inline constexpr LabelInfo kLabels[] = {
#define CAPU_LABEL_ROW(id, text, kind, track, phase, form)                    \
    {text, EventKind::kind, kTrack##track, EventPhase::phase,                 \
     LabelForm::form},
    CAPU_TRACE_LABELS(CAPU_LABEL_ROW)
#undef CAPU_LABEL_ROW
};

constexpr const LabelInfo &
labelInfo(Label label)
{
    return kLabels[static_cast<std::size_t>(label)];
}

struct TraceEvent
{
    Label label = Label::Kernel;
    Tick ts = 0;
    Tick dur = 0;             ///< Complete events only
    std::int64_t tensor = -1; ///< tensor id; async-span id for Lifetime
    std::int64_t op = -1;     ///< op id when the event is op-related
    std::uint64_t bytes = 0;  ///< payload size where meaningful
    double value = 0.0;       ///< counter samples, access indices
    std::int64_t number = 0;  ///< Number-form labels: iteration, class
    bool failed = false;      ///< transfer aborted by an injected fault
    bool closes = false;      ///< Lifetime: closes the label's span

    bool operator==(const TraceEvent &) const = default;

    EventKind kind() const { return labelInfo(label).kind; }
    std::uint32_t track() const { return labelInfo(label).track; }
    EventPhase
    phase() const
    {
        return closes ? EventPhase::SpanEnd : labelInfo(label).phase;
    }
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/**
 * Tensor and op names by id, for formatting labels. Built from the graph
 * a run holds (exec's traceNames) or from an imported trace's labels.
 * Unknown ids resolve to the empty string.
 */
struct Names
{
    std::vector<std::string> tensors;
    std::vector<std::string> ops;

    std::string_view tensor(std::int64_t id) const { return at(tensors, id); }
    std::string_view op(std::int64_t id) const { return at(ops, id); }

  private:
    static std::string_view
    at(const std::vector<std::string> &v, std::int64_t id)
    {
        return id >= 0 && static_cast<std::size_t>(id) < v.size()
                   ? std::string_view(v[static_cast<std::size_t>(id)])
                   : std::string_view();
    }
};

/** Append the event's exported name (the Chrome `name` field) to `out`. */
void formatLabel(std::string &out, const TraceEvent &ev, const Names &names);

} // namespace capu::obs

#endif // CAPU_OBS_EVENT_HH
