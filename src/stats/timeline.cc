#include "stats/timeline.hh"

#include <algorithm>

namespace capu
{

void
renderTimeline(std::ostream &os, const obs::Tracer &tracer,
               const std::vector<TimelineTrack> &tracks, Tick begin,
               Tick end, std::size_t width)
{
    if (end <= begin || width == 0)
        return;
    const double span = static_cast<double>(end - begin);

    std::size_t label_w = 0;
    for (const auto &row : tracks)
        label_w = std::max(label_w, row.label.size());

    for (const auto &row : tracks) {
        std::string cells(width, '.');
        tracer.forEach([&](const obs::TraceEvent &ev) {
            if (ev.phase() != obs::EventPhase::Complete ||
                ev.track() != row.track)
                return;
            Tick iv_end = ev.ts + ev.dur;
            if (iv_end <= begin || ev.ts >= end)
                return;
            Tick s = std::max(ev.ts, begin);
            Tick e = std::min(iv_end, end);
            auto c0 = static_cast<std::size_t>((s - begin) / span * width);
            auto c1 = static_cast<std::size_t>((e - begin) / span * width);
            c1 = std::max(c1, c0 + 1);
            for (std::size_t c = c0; c < std::min(c1, width); ++c)
                cells[c] = '#';
        });
        os << row.label;
        for (std::size_t pad = row.label.size(); pad < label_w; ++pad)
            os << ' ';
        os << " |" << cells << "|\n";
    }
    os << std::string(label_w, ' ') << "  " << formatTicks(begin) << " .. "
       << formatTicks(end) << '\n';
}

double
trackUtilization(const obs::Tracer &tracer, std::uint32_t track, Tick begin,
                 Tick end)
{
    if (end <= begin)
        return 0;
    Tick busy = 0;
    tracer.forEach([&](const obs::TraceEvent &ev) {
        if (ev.phase() != obs::EventPhase::Complete || ev.track() != track)
            return;
        Tick iv_end = ev.ts + ev.dur;
        if (iv_end <= begin || ev.ts >= end)
            return;
        busy += std::min(iv_end, end) - std::max(ev.ts, begin);
    });
    return static_cast<double>(busy) / static_cast<double>(end - begin);
}

} // namespace capu
