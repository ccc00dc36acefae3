/**
 * @file
 * Ring-buffered event tracer.
 *
 * Instrumentation points all over the pipeline (streams, PCIe lanes, the
 * executor's host loop, the allocator, the policies) record TraceEvents
 * here. The buffer is a fixed-capacity ring: recording is O(1), memory is
 * bounded, and when the ring wraps the *oldest* events are dropped — the
 * tail of a run is always intact, which is what post-mortem debugging
 * wants. Dropped events are counted and reported by the exporters.
 *
 * Events arrive in *emission* order, which is close to but not exactly
 * timestamp order (the host loop emits a kernel's interval at enqueue time,
 * which may predate an already-emitted transfer completion). Consumers that
 * need chronology use chronological(), a stable sort by tick.
 */

#ifndef CAPU_OBS_TRACER_HH
#define CAPU_OBS_TRACER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hh"

namespace capu::obs
{

class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    explicit Tracer(std::size_t capacity = kDefaultCapacity);

    /** Disabled tracers drop every emit() without touching the ring. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Resize the ring; discards any buffered events. */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return capacity_; }

    /** Drop all buffered events and reset the drop counter. */
    void clear();

    /** Events currently buffered. */
    std::size_t size() const { return buf_.size(); }
    /** Events recorded since the last clear(), including dropped ones. */
    std::uint64_t recorded() const { return recorded_; }
    /** Events evicted by ring wrap-around. */
    std::uint64_t dropped() const { return recorded_ - buf_.size(); }

    /** Human-readable name for a track (exported as thread_name). */
    void setTrackName(std::uint32_t track, std::string name);
    const std::vector<std::pair<std::uint32_t, std::string>> &
    trackNames() const
    {
        return trackNames_;
    }

    /**
     * Run-level metadata (seed, fault plan, ...) exported into the Chrome
     * trace's otherData so any artifact identifies the run that produced
     * it. Stored even while tracing is disabled. Re-setting a key
     * overwrites its value.
     */
    void setMeta(std::string key, std::string value);
    const std::vector<std::pair<std::string, std::string>> &
    meta() const
    {
        return meta_;
    }

    /**
     * Record one event; a no-op while disabled. The label fixes the
     * event's kind, track and phase (event.hh), so a call names only the
     * label and the ids: `emit({.label = Label::Stall, .ts = t, ...})`.
     */
    void
    emit(const TraceEvent &ev)
    {
        if (enabled_)
            push(ev);
    }

    /** Visit buffered events oldest-to-newest (emission order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (buf_.size() < capacity_) {
            for (const auto &ev : buf_)
                fn(ev);
            return;
        }
        for (std::size_t i = 0; i < buf_.size(); ++i)
            fn(buf_[(next_ + i) % buf_.size()]);
    }

    /**
     * Buffered events stable-sorted by timestamp. The sort is cached and
     * invalidated by emit()/clear()/setCapacity(), so exporters and
     * analyzers that each walk the full ring share one sort. The reference
     * is invalidated by the next mutation.
     */
    const std::vector<TraceEvent> &chronological() const;

    /**
     * Copies of the events recorded at or after sequence number `mark`
     * (a prior recorded() value), in emission order. Events that have
     * already been evicted by ring wrap-around are silently missing —
     * callers sampling one iteration should size the ring accordingly.
     */
    std::vector<TraceEvent> eventsSince(std::uint64_t mark) const;

  private:
    void push(const TraceEvent &ev);

    std::vector<TraceEvent> buf_;
    mutable std::vector<TraceEvent> chrono_; ///< chronological() cache
    mutable bool chronoDirty_ = true;
    std::vector<std::pair<std::uint32_t, std::string>> trackNames_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::size_t capacity_;
    std::size_t next_ = 0; ///< overwrite cursor once the ring is full
    std::uint64_t recorded_ = 0;
    bool enabled_ = false;
};

} // namespace capu::obs

#endif // CAPU_OBS_TRACER_HH
