#include "obs/event_adapter.hh"

#include <algorithm>

namespace capu::obs
{

std::vector<TimelineRecord>
extractTimeline(const std::vector<TraceEvent> &events)
{
    std::vector<TimelineRecord> out;
    out.reserve(events.size() / 2);
    for (const TraceEvent &ev : events) {
        if (ev.tensor < 0)
            continue;
        TimelineRecord rec;
        rec.tensor = ev.tensor;
        rec.op = ev.op;
        rec.start = ev.ts;
        rec.end = ev.ts + ev.dur;
        rec.bytes = ev.bytes;
        switch (ev.label) {
          case Label::Read:
          case Label::Write:
            rec.kind = TimelineKind::Access;
            rec.accessIndex = static_cast<int>(ev.value);
            rec.write = ev.label == Label::Write;
            break;
          case Label::Recompute:
            rec.kind = TimelineKind::Recompute;
            break;
          case Label::SwapOut:
          case Label::OomSwapOut:
            rec.kind = TimelineKind::SwapOut;
            rec.failed = ev.failed;
            break;
          case Label::SwapIn:
          case Label::Prefetch:
            rec.kind = TimelineKind::SwapIn;
            rec.failed = ev.failed;
            break;
          default:
            continue;
        }
        out.push_back(rec);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TimelineRecord &a, const TimelineRecord &b) {
                         return a.start < b.start;
                     });
    return out;
}

std::vector<TimelineRecord>
extractTimeline(const Tracer &tracer)
{
    return extractTimeline(tracer.chronological());
}

} // namespace capu::obs
