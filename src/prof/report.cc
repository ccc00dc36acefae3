#include "prof/report.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/chrome_trace.hh"
#include "stats/table.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/units.hh"

namespace capu::prof
{

namespace
{

std::string
ms(Tick t)
{
    return cellDouble(ticksToMs(t), 3);
}

std::string
share(Tick part, Tick whole)
{
    if (whole == 0)
        return cellPercent(0.0);
    return cellPercent(static_cast<double>(part) /
                       static_cast<double>(whole));
}

std::string
hexDigest(std::uint64_t d)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, d);
    return buf;
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

struct BucketRow
{
    const char *key;
    const char *label;
    Tick Buckets::*field;
};

constexpr BucketRow kBucketRows[] = {
    {"compute", "compute", &Buckets::compute},
    {"recompute", "recompute", &Buckets::recompute},
    {"swap_stall", "swap-in stall", &Buckets::swapStall},
    {"oom_stall", "oom protocol", &Buckets::oomStall},
    {"idle", "idle", &Buckets::idle},
};

Table
bucketTable(const Profile &p)
{
    Table t({"bucket", "time(ms)", "share"});
    for (const auto &row : kBucketRows) {
        Tick v = p.buckets.*row.field;
        t.addRow({row.label, ms(v), share(v, p.wallTicks)});
    }
    t.addRow({"total", ms(p.buckets.total()),
              share(p.buckets.total(), p.wallTicks)});
    return t;
}

Table
tensorTable(const Profile &p, std::size_t topK)
{
    Table t({"tensor", "bytes", "swap out/in", "recompute(ms)",
             "stall(ms)", "prefetch e/o/l/m", "relief(GB*ms)", "peak",
             "overhead(ms)"});
    auto ranked = rankTensors(p);
    for (std::size_t i = 0; i < ranked.size() && i < topK; ++i) {
        const TensorAccount &a = *ranked[i];
        t.addRow({a.name, formatBytes(a.bytes),
                  cellInt(a.swapOutCount) + "/" + cellInt(a.swapInCount),
                  ms(a.recomputeTicks), ms(a.stallTicks),
                  cellInt(a.prefetch.early) + "/" +
                      cellInt(a.prefetch.onTime) + "/" +
                      cellInt(a.prefetch.late) + "/" +
                      cellInt(a.prefetch.missed),
                  cellDouble(a.reliefByteTicks / (1e9 * 1e6), 2),
                  a.residentAtPeak ? "y" : "-", ms(a.overheadTicks)});
    }
    return t;
}

void
renderCommon(std::ostream &os, const Profile &p, std::size_t topK,
             bool markdown)
{
    auto heading = [&](const char *text) {
        if (markdown)
            os << "\n## " << text << "\n\n";
        else
            os << "\n" << text << "\n";
    };
    auto emit = [&](Table &t) {
        if (markdown) {
            // Tables render natively in markdown via CSV -> pipes.
            std::ostringstream csv;
            t.printCsv(csv);
            std::istringstream lines(csv.str());
            std::string line;
            bool header = true;
            while (std::getline(lines, line)) {
                os << "| ";
                for (char c : line)
                    os << (c == ',' ? std::string(" | ") : std::string(1, c));
                os << " |\n";
                if (header) {
                    os << "|";
                    std::size_t cols =
                        1 + static_cast<std::size_t>(
                                std::count(line.begin(), line.end(), ','));
                    for (std::size_t i = 0; i < cols; ++i)
                        os << "---|";
                    os << "\n";
                    header = false;
                }
            }
        } else {
            t.print(os);
        }
    };

    if (markdown)
        os << "# capuprof report\n\n";
    else
        os << "capuprof report\n";
    for (const auto &[k, v] : p.meta)
        os << (markdown ? "- " : "  ") << k << ": " << v << "\n";
    os << (markdown ? "- " : "  ") << "wall: " << ms(p.wallTicks)
       << " ms over " << p.iterations.size() << " iterations ("
       << p.events << " events";
    if (p.droppedEvents > 0)
        os << ", " << p.droppedEvents << " DROPPED — profile truncated";
    os << ")\n";
    os << (markdown ? "- " : "  ") << "peak device bytes: "
       << formatBytes(p.peakBytes) << "\n";

    heading("wall-clock attribution");
    Table buckets = bucketTable(p);
    emit(buckets);
    Tick err = p.conservationError();
    os << (markdown ? "\n" : "") << "conservation error: " << err
       << " ns\n";

    if (p.drift.classes > 0) {
        heading("shape-class drift (capudrift)");
        os << p.drift.classes << " shape classes, " << p.drift.novel
           << " novel-class measurements, " << p.drift.remeasures
           << " drift re-measurements\n";
        Table d({"class", "iters", "wall(ms)", "share"});
        for (std::size_t c = 0; c < p.drift.iterationsPerClass.size();
             ++c) {
            if (p.drift.iterationsPerClass[c] == 0)
                continue;
            d.addRow({cellInt(static_cast<std::int64_t>(c)),
                      cellInt(p.drift.iterationsPerClass[c]),
                      ms(p.drift.wallPerClass[c]),
                      share(p.drift.wallPerClass[c], p.wallTicks)});
        }
        emit(d);
    }

    if (p.serve.present) {
        heading("planning service (capuserve)");
        os << p.serve.hits << " hits, " << p.serve.misses << " misses ("
           << static_cast<int>(p.serve.hitRate * 100) << "% hit rate), "
           << p.serve.evictions << " evictions, " << p.serve.diskLoads
           << " disk loads; cache " << p.serve.cacheEntries << " entries / "
           << formatBytes(p.serve.cacheBytes) << "\n";
    }

    heading("top costly tensors");
    Table tensors = tensorTable(p, topK);
    if (tensors.rows() == 0) {
        os << "(no memory-management traffic)\n";
    } else {
        emit(tensors);
    }

    heading("critical path (happens-before DAG over memory traffic)");
    const CriticalPathSummary &c = p.critical;
    if (!c.valid) {
        os << (c.events == 0 ? "(no moving tensors)\n"
                             : "(cyclic ordering graph — see capulint)\n");
        return;
    }
    os << "makespan: " << ms(c.makespan) << " ms over " << c.events
       << " events / " << c.edges << " edges; " << c.zeroSlack
       << " zero-slack, max slack " << ms(c.maxSlack) << " ms\n";
    os << "on-path: transfer " << ms(c.onPathTransfer) << " ms, recompute "
       << ms(c.onPathRecompute) << " ms, wait " << ms(c.onPathWait)
       << " ms (" << c.pathLength << " steps)\n";
    if (!c.steps.empty()) {
        Table steps({"step", "stream", "tensor", "op", "wait(ms)",
                     "at(ms)"});
        for (const auto &s : c.steps) {
            steps.addRow({s.op, s.stream,
                          s.tensor < 0 ? "-" : cellInt(s.tensor),
                          s.opId < 0 ? "-" : cellInt(s.opId), ms(s.wait),
                          ms(s.start)});
        }
        emit(steps);
    }
}

void
writeBucketsJson(std::ostream &os, const Buckets &b, const char *indent)
{
    os << "{";
    bool first = true;
    for (const auto &row : kBucketRows) {
        os << (first ? "" : ", ") << "\"" << row.key
           << "\": " << b.*row.field;
        first = false;
    }
    os << "}";
    (void)indent;
}

void
writeProfileJson(std::ostream &os, const Profile &p)
{
    os << "{\n  \"capuprof\": " << p.schema << ",\n  \"meta\": {";
    bool first = true;
    for (const auto &[k, v] : p.meta) {
        os << (first ? "\n" : ",\n") << "    \"" << obs::jsonEscape(k)
           << "\": \"" << obs::jsonEscape(v) << "\"";
        first = false;
    }
    os << "\n  },\n";
    os << "  \"session\": {\"begin\": " << p.sessionBegin
       << ", \"end\": " << p.sessionEnd << ", \"wall_ns\": " << p.wallTicks
       << ", \"events\": " << p.events << ", \"dropped\": "
       << p.droppedEvents << ", \"peak_bytes\": " << p.peakBytes
       << ", \"peak_ts\": " << p.peakTs << "},\n";
    os << "  \"buckets\": ";
    writeBucketsJson(os, p.buckets, "  ");
    os << ",\n  \"iterations\": [";
    first = true;
    for (const auto &it : p.iterations) {
        os << (first ? "\n" : ",\n") << "    {\"iteration\": "
           << it.iteration << ", \"begin\": " << it.begin << ", \"end\": "
           << it.end << ", \"digest\": \"" << hexDigest(it.digest)
           << "\", \"class\": " << it.shapeClass << ", \"buckets\": ";
        writeBucketsJson(os, it.buckets, "    ");
        os << "}";
        first = false;
    }
    os << "\n  ],\n  \"drift\": {\"classes\": " << p.drift.classes
       << ", \"novel\": " << p.drift.novel << ", \"remeasures\": "
       << p.drift.remeasures << ", \"per_class\": [";
    first = true;
    for (std::size_t c = 0; c < p.drift.iterationsPerClass.size(); ++c) {
        os << (first ? "" : ", ") << "{\"class\": " << c
           << ", \"iterations\": " << p.drift.iterationsPerClass[c]
           << ", \"wall_ns\": " << p.drift.wallPerClass[c] << "}";
        first = false;
    }
    os << "]},\n";
    if (p.serve.present) {
        // Additive section: only present when the run drove a PlanService
        // (capuserve); older readers skip unknown keys.
        os << "  \"serve\": {\"hits\": " << p.serve.hits
           << ", \"misses\": " << p.serve.misses << ", \"evictions\": "
           << p.serve.evictions << ", \"disk_loads\": " << p.serve.diskLoads
           << ", \"cache_entries\": " << p.serve.cacheEntries
           << ", \"cache_bytes\": " << p.serve.cacheBytes
           << ", \"hit_rate\": " << jsonNum(p.serve.hitRate) << "},\n";
    }
    os << "  \"tensors\": [";
    first = true;
    for (const auto &a : p.tensors) {
        os << (first ? "\n" : ",\n") << "    {\"tensor\": " << a.tensor
           << ", \"name\": \"" << obs::jsonEscape(a.name)
           << "\", \"bytes\": " << a.bytes << ", \"swap_out_bytes\": "
           << a.swapOutBytes << ", \"swap_in_bytes\": " << a.swapInBytes
           << ", \"swap_out_count\": " << a.swapOutCount
           << ", \"swap_in_count\": " << a.swapInCount
           << ", \"recompute_ns\": " << a.recomputeTicks
           << ", \"recompute_ops\": " << a.recomputeOps
           << ", \"stall_ns\": " << a.stallTicks << ", \"transfer_ns\": "
           << a.transferTicks << ", \"relief_byte_ns\": "
           << jsonNum(a.reliefByteTicks) << ", \"overhead_ns\": "
           << a.overheadTicks << ", \"resident_at_peak\": "
           << (a.residentAtPeak ? "true" : "false")
           << ", \"prefetch\": {\"early\": " << a.prefetch.early
           << ", \"on_time\": " << a.prefetch.onTime << ", \"late\": "
           << a.prefetch.late << ", \"missed\": " << a.prefetch.missed
           << "}}";
        first = false;
    }
    os << "\n  ],\n  \"ops\": [";
    first = true;
    for (const auto &o : p.ops) {
        os << (first ? "\n" : ",\n") << "    {\"op\": " << o.op
           << ", \"name\": \"" << obs::jsonEscape(o.name)
           << "\", \"count\": " << o.count << ", \"compute_ns\": "
           << o.computeTicks << "}";
        first = false;
    }
    const CriticalPathSummary &c = p.critical;
    os << "\n  ],\n  \"critical_path\": {\"valid\": "
       << (c.valid ? "true" : "false") << ", \"makespan_ns\": "
       << c.makespan << ", \"events\": " << c.events << ", \"edges\": "
       << c.edges << ", \"zero_slack\": " << c.zeroSlack
       << ", \"max_slack_ns\": " << c.maxSlack
       << ", \"on_path_transfer_ns\": " << c.onPathTransfer
       << ", \"on_path_recompute_ns\": " << c.onPathRecompute
       << ", \"on_path_wait_ns\": " << c.onPathWait
       << ", \"path_length\": " << c.pathLength << ", \"steps\": [";
    first = true;
    for (const auto &s : c.steps) {
        os << (first ? "\n" : ",\n") << "    {\"op\": \""
           << obs::jsonEscape(s.op) << "\", \"stream\": \""
           << obs::jsonEscape(s.stream) << "\", \"tensor\": " << s.tensor
           << ", \"op_id\": " << s.opId << ", \"start\": " << s.start
           << ", \"end\": " << s.end << ", \"wait\": " << s.wait << "}";
        first = false;
    }
    os << "\n  ]}\n}\n";
}

void
loadBuckets(const json::Value &j, Buckets &b, bool &ok)
{
    for (const auto &row : kBucketRows)
        b.*row.field = j[row.key].asU64(ok);
}

} // namespace

bool
parseReportFormat(const std::string &name, ReportFormat &out)
{
    if (name == "text") {
        out = ReportFormat::Text;
    } else if (name == "md" || name == "markdown") {
        out = ReportFormat::Markdown;
    } else if (name == "json") {
        out = ReportFormat::Json;
    } else {
        return false;
    }
    return true;
}

void
renderProfile(std::ostream &os, const Profile &profile, ReportFormat format,
              std::size_t topK)
{
    switch (format) {
      case ReportFormat::Text:
        renderCommon(os, profile, topK, false);
        break;
      case ReportFormat::Markdown:
        renderCommon(os, profile, topK, true);
        break;
      case ReportFormat::Json:
        writeProfileJson(os, profile);
        break;
    }
}

bool
writeProfileJsonFile(const std::string &path, const Profile &profile)
{
    std::ofstream os(path);
    if (!os) {
        warn("capuprof: cannot open profile file '{}'", path);
        return false;
    }
    writeProfileJson(os, profile);
    return static_cast<bool>(os);
}

bool
loadProfileJson(const std::string &path, Profile &out, std::string *err)
{
    json::Value root;
    if (!json::parseFile(path, root, err))
        return false;
    if (root.kind != json::Value::Obj || !root.has("capuprof")) {
        if (err)
            *err = "'" + path + "' is not a capuprof profile";
        return false;
    }
    out = Profile{};
    bool ok = true;
    out.schema = static_cast<int>(root["capuprof"].asI64(ok));
    for (const std::string &k : root["meta"].keys) {
        const json::Value &v = root["meta"][k];
        if (v.kind == json::Value::Str)
            out.meta.emplace_back(k, v.str);
    }
    const json::Value &s = root["session"];
    out.sessionBegin = s["begin"].asU64(ok);
    out.sessionEnd = s["end"].asU64(ok);
    out.wallTicks = s["wall_ns"].asU64(ok);
    out.events = s["events"].asU64(ok);
    out.droppedEvents = s["dropped"].asU64(ok);
    out.peakBytes = s["peak_bytes"].asU64(ok);
    out.peakTs = s["peak_ts"].asU64(ok);
    loadBuckets(root["buckets"], out.buckets, ok);
    for (const json::Value &j : root["iterations"].arr) {
        IterationProfile it;
        it.iteration = static_cast<int>(j["iteration"].asI64(ok));
        it.begin = j["begin"].asU64(ok);
        it.end = j["end"].asU64(ok);
        it.digest = std::strtoull(j["digest"].str.c_str(), nullptr, 16);
        if (j.has("class"))
            it.shapeClass = static_cast<int>(j["class"].asI64(ok));
        loadBuckets(j["buckets"], it.buckets, ok);
        out.iterations.push_back(it);
    }
    if (root.has("drift")) {
        const json::Value &d = root["drift"];
        out.drift.classes = static_cast<int>(d["classes"].asI64(ok));
        out.drift.novel = static_cast<int>(d["novel"].asI64(ok));
        out.drift.remeasures = static_cast<int>(d["remeasures"].asI64(ok));
        for (const json::Value &j : d["per_class"].arr) {
            out.drift.iterationsPerClass.push_back(
                static_cast<int>(j["iterations"].asI64(ok)));
            out.drift.wallPerClass.push_back(j["wall_ns"].asU64(ok));
        }
    }
    if (root.has("serve")) {
        const json::Value &s = root["serve"];
        out.serve.present = true;
        out.serve.hits = s["hits"].asU64(ok);
        out.serve.misses = s["misses"].asU64(ok);
        out.serve.evictions = s["evictions"].asU64(ok);
        out.serve.diskLoads = s["disk_loads"].asU64(ok);
        out.serve.cacheEntries = s["cache_entries"].asU64(ok);
        out.serve.cacheBytes = s["cache_bytes"].asU64(ok);
        out.serve.hitRate = s["hit_rate"].asDouble();
    }
    for (const json::Value &j : root["tensors"].arr) {
        TensorAccount a;
        a.tensor = j["tensor"].asI64(ok);
        a.name = j["name"].str;
        a.bytes = j["bytes"].asU64(ok);
        a.swapOutBytes = j["swap_out_bytes"].asU64(ok);
        a.swapInBytes = j["swap_in_bytes"].asU64(ok);
        a.swapOutCount = static_cast<int>(j["swap_out_count"].asI64(ok));
        a.swapInCount = static_cast<int>(j["swap_in_count"].asI64(ok));
        a.recomputeTicks = j["recompute_ns"].asU64(ok);
        a.recomputeOps = static_cast<int>(j["recompute_ops"].asI64(ok));
        a.stallTicks = j["stall_ns"].asU64(ok);
        a.transferTicks = j["transfer_ns"].asU64(ok);
        a.reliefByteTicks = j["relief_byte_ns"].asDouble();
        a.overheadTicks = j["overhead_ns"].asU64(ok);
        a.residentAtPeak = j["resident_at_peak"].b;
        const json::Value &pf = j["prefetch"];
        a.prefetch.early = static_cast<int>(pf["early"].asI64(ok));
        a.prefetch.onTime = static_cast<int>(pf["on_time"].asI64(ok));
        a.prefetch.late = static_cast<int>(pf["late"].asI64(ok));
        a.prefetch.missed = static_cast<int>(pf["missed"].asI64(ok));
        out.tensors.push_back(std::move(a));
    }
    for (const json::Value &j : root["ops"].arr) {
        OpAccount o;
        o.op = j["op"].asI64(ok);
        o.name = j["name"].str;
        o.count = static_cast<int>(j["count"].asI64(ok));
        o.computeTicks = j["compute_ns"].asU64(ok);
        out.ops.push_back(std::move(o));
    }
    const json::Value &c = root["critical_path"];
    out.critical.valid = c["valid"].b;
    out.critical.makespan = c["makespan_ns"].asU64(ok);
    out.critical.events = c["events"].asU64(ok);
    out.critical.edges = c["edges"].asU64(ok);
    out.critical.zeroSlack = c["zero_slack"].asU64(ok);
    out.critical.maxSlack = c["max_slack_ns"].asU64(ok);
    out.critical.onPathTransfer = c["on_path_transfer_ns"].asU64(ok);
    out.critical.onPathRecompute = c["on_path_recompute_ns"].asU64(ok);
    out.critical.onPathWait = c["on_path_wait_ns"].asU64(ok);
    out.critical.pathLength = c["path_length"].asU64(ok);
    for (const json::Value &j : c["steps"].arr) {
        CriticalPathStep step;
        step.op = j["op"].str;
        step.stream = j["stream"].str;
        step.tensor = j["tensor"].asI64(ok);
        step.opId = j["op_id"].asI64(ok);
        step.start = j["start"].asU64(ok);
        step.end = j["end"].asU64(ok);
        step.wait = j["wait"].asU64(ok);
        out.critical.steps.push_back(std::move(step));
    }
    if (!ok && err)
        *err = "'" + path + "' has a number that is not a valid integer";
    return ok;
}

} // namespace capu::prof
