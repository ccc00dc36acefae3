#include "obs/chrome_trace.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "support/logging.hh"

namespace capu::obs
{

namespace
{

/** Simulation ns -> trace µs, keeping full ns precision as fractions. */
std::string
micros(Tick ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

/**
 * Integral values (counters, byte totals) print exactly so the export
 * round-trips bit-for-bit through capuprof's importer; anything else gets
 * enough digits to reparse to the same double.
 */
std::string
jsonDouble(double v)
{
    char buf[40];
    if (v >= -9.2e18 && v <= 9.2e18 &&
        v == static_cast<double>(static_cast<long long>(v)))
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeCommonArgs(std::ostream &os, const TraceEvent &ev, bool &first)
{
    auto field = [&](const char *key, const std::string &val) {
        os << (first ? "" : ",") << '"' << key << "\":" << val;
        first = false;
    };
    if (ev.tensor >= 0)
        field("tensor", std::to_string(ev.tensor));
    if (ev.op >= 0)
        field("op", std::to_string(ev.op));
    if (ev.bytes != 0)
        field("bytes", std::to_string(ev.bytes));
}

void
writeEvent(std::ostream &os, const TraceEvent &ev, const Names &names,
           std::string &label)
{
    label.clear();
    formatLabel(label, ev, names);
    os << "{\"name\":\"" << jsonEscape(label) << "\",\"cat\":\""
       << eventKindName(ev.kind()) << "\",\"pid\":0,\"tid\":" << ev.track()
       << ",\"ts\":" << micros(ev.ts) << ",\"ph\":\""
       << kPhaseCodes[static_cast<int>(ev.phase())] << '"';
    switch (ev.phase()) {
      case EventPhase::Complete: {
        os << ",\"dur\":" << micros(ev.dur) << ",\"args\":{";
        bool first = true;
        writeCommonArgs(os, ev, first);
        os << "}";
        break;
      }
      case EventPhase::Instant: {
        os << ",\"s\":\"t\",\"args\":{";
        bool first = true;
        writeCommonArgs(os, ev, first);
        if (ev.value != 0) { // access index: keeps the export lossless
            os << (first ? "" : ",") << "\"value\":" << jsonDouble(ev.value);
            first = false;
        }
        os << "}";
        break;
      }
      case EventPhase::Counter:
        os << ",\"args\":{\"value\":" << jsonDouble(ev.value) << "}";
        break;
      case EventPhase::SpanBegin:
      case EventPhase::SpanEnd:
        os << ",\"id\":" << ev.tensor << ",\"args\":{";
        if (ev.bytes != 0)
            os << "\"bytes\":" << ev.bytes;
        os << "}";
        break;
    }
    os << "}";
}

/**
 * One JSON object's members: `"name": value` for every touched metric of
 * `kind`, in table (that is, name) order.
 */
template <typename F>
void
writeMembers(std::ostream &os, const MetricsRegistry &metrics,
             MetricKind kind, F &&value)
{
    const char *sep = "\n";
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        auto m = static_cast<Metric>(i);
        if (kMetricTable[i].kind != kind || !metrics.touched(m))
            continue;
        os << sep << "    \"" << kMetricTable[i].name << "\": ";
        value(m);
        sep = ",\n";
    }
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    // In EventKind order.
    static constexpr const char *kNames[] = {
        "kernel", "recompute", "transfer", "sync",  "stall",
        "access", "oom",       "decision", "plan",  "tensor",
        "sample", "marker",    "fault",    "recovery"};
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(EventKind::Recovery) + 1);
    return kNames[static_cast<std::size_t>(kind)];
}

void
formatLabel(std::string &out, const TraceEvent &ev, const Names &names)
{
    const LabelInfo &info = labelInfo(ev.label);
    if (info.form == LabelForm::Phase)
        (out += names.tensor(ev.tensor)) += ':';
    out += info.text;
    if (info.form == LabelForm::Tensor)
        out += names.tensor(ev.tensor);
    else if (info.form == LabelForm::Op)
        out += names.op(ev.op);
    else if (info.form == LabelForm::Number)
        out += std::to_string(ev.number);
    if (ev.failed)
        out += "!fail";
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeChromeTrace(std::ostream &os, const Tracer &tracer, const Names &names)
{
    os << "{\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };

    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"capusim\"}}";
    for (const auto &[track, name] : tracer.trackNames()) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
           << track << ",\"args\":{\"name\":\"" << jsonEscape(name)
           << "\"}}";
        sep();
        os << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":"
           << track << ",\"args\":{\"sort_index\":" << track << "}}";
    }

    std::string label;
    for (const auto &ev : tracer.chronological()) {
        sep();
        writeEvent(os, ev, names, label);
    }

    os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
          "\"recorded\":"
       << tracer.recorded() << ",\"dropped\":" << tracer.dropped();
    for (const auto &[key, value] : tracer.meta()) {
        os << ",\"" << jsonEscape(key) << "\":\"" << jsonEscape(value)
           << "\"";
    }
    os << "}}\n";
}

bool
writeChromeTraceFile(const std::string &path, const Tracer &tracer,
                     const Names &names)
{
    std::ofstream os(path);
    if (!os) {
        warn("obs: cannot open trace file '{}'", path);
        return false;
    }
    writeChromeTrace(os, tracer, names);
    if (tracer.dropped() > 0) {
        warn("obs: trace ring dropped {} of {} events (oldest first); "
             "profile/trace '{}' is truncated — raise --trace-cap",
             tracer.dropped(), tracer.recorded(), path);
    }
    return static_cast<bool>(os);
}

void
writeMetricsCsv(std::ostream &os, const MetricsRegistry &metrics)
{
    MetricSet columns;
    for (const auto &snap : metrics.iterations())
        columns |= snap.touched;
    os << "iteration";
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        if (columns.test(i))
            os << ',' << kMetricTable[i].name;
    }
    os << '\n';
    for (const auto &snap : metrics.iterations()) {
        os << snap.iteration;
        // An untouched cell holds 0.0, which prints as 0.
        for (std::size_t i = 0; i < kMetricCount; ++i) {
            if (columns.test(i))
                os << ',' << jsonDouble(snap.values[i]);
        }
        os << '\n';
    }
    // Histogram summary footer: full-run distributions don't fit the
    // per-iteration row model, so they ride along as comment rows.
    for (std::size_t i = 0; i < kMetricCount; ++i) {
        const Histogram *hist = metrics.histogram(static_cast<Metric>(i));
        if (hist == nullptr)
            continue;
        os << "#histogram," << kMetricTable[i].name << ",count="
           << hist->count() << ",sum=" << hist->sum() << ",min="
           << hist->min() << ",max=" << hist->max()
           << ",mean=" << jsonDouble(hist->mean()) << ",p50=" << hist->p50()
           << ",p95=" << hist->p95() << ",p99=" << hist->p99() << '\n';
    }
}

void
writeMetricsJson(std::ostream &os, const MetricsRegistry &metrics)
{
    os << "{\n  \"counters\": {";
    writeMembers(os, metrics, MetricKind::Counter,
                 [&](Metric m) { os << metrics.counter(m); });
    os << "\n  },\n  \"gauges\": {";
    writeMembers(os, metrics, MetricKind::Gauge,
                 [&](Metric m) { os << jsonDouble(metrics.gauge(m)); });
    os << "\n  },\n  \"histograms\": {";
    writeMembers(os, metrics, MetricKind::Histogram, [&](Metric m) {
        const Histogram &hist = *metrics.histogram(m);
        os << "{\"count\": " << hist.count() << ", \"sum\": " << hist.sum()
           << ", \"min\": " << hist.min() << ", \"max\": " << hist.max()
           << ", \"mean\": " << jsonDouble(hist.mean())
           << ", \"p50\": " << hist.p50() << ", \"p95\": " << hist.p95()
           << ", \"p99\": " << hist.p99() << ", \"buckets\": [";
        for (std::size_t i = 0; i < hist.usedBuckets(); ++i)
            os << (i ? "," : "") << hist.bucket(i);
        os << "]}";
    });
    os << "\n  },\n  \"iterations\": [";
    bool first = true;
    for (const auto &snap : metrics.iterations()) {
        os << (first ? "\n" : ",\n") << "    {\"iteration\": "
           << snap.iteration;
        for (std::size_t i = 0; i < kMetricCount; ++i) {
            if (snap.touched.test(i))
                os << ", \"" << kMetricTable[i].name
                   << "\": " << jsonDouble(snap.values[i]);
        }
        os << "}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

bool
writeMetricsFile(const std::string &path, const MetricsRegistry &metrics)
{
    std::ofstream os(path);
    if (!os) {
        warn("obs: cannot open metrics file '{}'", path);
        return false;
    }
    bool json = path.size() >= 5 && path.compare(path.size() - 5, 5,
                                                 ".json") == 0;
    if (json)
        writeMetricsJson(os, metrics);
    else
        writeMetricsCsv(os, metrics);
    return static_cast<bool>(os);
}

} // namespace capu::obs
