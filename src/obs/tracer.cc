#include "obs/tracer.hh"

#include <algorithm>

#include "support/logging.hh"

namespace capu::obs
{

Tracer::Tracer(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        fatal("tracer ring capacity must be nonzero");
}

void
Tracer::setCapacity(std::size_t capacity)
{
    if (capacity == 0)
        fatal("tracer ring capacity must be nonzero");
    capacity_ = capacity;
    clear();
}

void
Tracer::clear()
{
    buf_.clear();
    buf_.shrink_to_fit();
    chrono_.clear();
    chrono_.shrink_to_fit();
    chronoDirty_ = true;
    next_ = 0;
    recorded_ = 0;
}

void
Tracer::setTrackName(std::uint32_t track, std::string name)
{
    for (auto &[id, n] : trackNames_) {
        if (id == track) {
            n = std::move(name);
            return;
        }
    }
    trackNames_.emplace_back(track, std::move(name));
}

void
Tracer::setMeta(std::string key, std::string value)
{
    for (auto &[k, v] : meta_) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    meta_.emplace_back(std::move(key), std::move(value));
}

void
Tracer::push(const TraceEvent &ev)
{
    ++recorded_;
    chronoDirty_ = true;
    if (buf_.size() < capacity_) {
        buf_.push_back(ev);
        return;
    }
    buf_[next_] = ev;
    next_ = (next_ + 1) % buf_.size();
}

std::vector<TraceEvent>
Tracer::eventsSince(std::uint64_t mark) const
{
    std::vector<TraceEvent> out;
    // Sequence number of the oldest event still buffered.
    std::uint64_t oldest = recorded_ - buf_.size();
    if (mark >= recorded_)
        return out;
    std::uint64_t first = std::max(mark, oldest);
    out.reserve(static_cast<std::size_t>(recorded_ - first));
    std::uint64_t seq = oldest;
    forEach([&](const TraceEvent &ev) {
        if (seq >= first)
            out.push_back(ev);
        ++seq;
    });
    return out;
}

const std::vector<TraceEvent> &
Tracer::chronological() const
{
    if (!chronoDirty_)
        return chrono_;
    chrono_.clear();
    chrono_.reserve(buf_.size());
    forEach([&](const TraceEvent &ev) { chrono_.push_back(ev); });
    std::stable_sort(chrono_.begin(), chrono_.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts < b.ts;
                     });
    chronoDirty_ = false;
    return chrono_;
}

} // namespace capu::obs
