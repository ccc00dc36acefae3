#include "spans.hh"

#include <algorithm>
#include <cstring>
#include <utility>

namespace perfbench
{

std::string
spanLayer(const char *name)
{
    const char *dot = std::strchr(name, '.');
    return dot ? std::string(name, dot) : std::string(name);
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startUs, s.endUs);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.startUs; // end of the union so far
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, s.endUs);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = std::max(0.0, s.endUs - s.startUs - covered);
    }
    return self;
}

std::map<std::string, double>
layerSelfMs(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spanLayer(spans[i].name)] += self[i] / 1000.0;
    return out;
}

void
writeSpansJson(std::ostream &os, const std::vector<Span> &spans)
{
    os << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"start_us\":" << s.startUs << ",\"end_us\":" << s.endUs
           << ",\"parent\":" << s.parent;
        if (s.request >= 0)
            os << ",\"request\":" << s.request;
        os << (i + 1 < spans.size() ? "},\n" : "}\n");
    }
    os << "]\n";
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanRecorder::open(const char *name, std::int64_t request)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.startUs = nowUs();
    spans_.push_back(s);
    int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].endUs = nowUs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
SpanRecorder::rename(int id, const char *name)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].name = name;
}

} // namespace perfbench
