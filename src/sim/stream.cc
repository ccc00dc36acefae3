#include "sim/stream.hh"

#include <algorithm>

namespace capu
{

Tick
Stream::enqueue(Tick ready, Tick duration, obs::TraceEvent ev)
{
    Tick start = std::max(ready, busyUntil_);
    Tick end = start + duration;
    lastStart_ = start;
    busyUntil_ = end;
    busyTicks_ += duration;
    if (tracer_) {
        ev.ts = start;
        ev.dur = duration;
        tracer_->emit(ev);
    }
    return end;
}

void
Stream::attachTracer(obs::Tracer *tracer, std::uint32_t track)
{
    tracer_ = tracer;
    if (tracer_)
        tracer_->setTrackName(track, name_);
}

void
Stream::reset()
{
    busyUntil_ = 0;
    lastStart_ = 0;
    busyTicks_ = 0;
}

} // namespace capu
