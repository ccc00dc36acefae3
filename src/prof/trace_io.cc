#include "prof/trace_io.hh"

#include <charconv>
#include <cmath>

#include "support/json.hh"

namespace capu::prof
{

namespace
{

/** Bounds what a malformed id can allocate; graph ids stay far below. */
constexpr std::int64_t kMaxNamedId = std::int64_t{1} << 20;

void
keepName(std::vector<std::string> &names, std::int64_t id,
         std::string_view name)
{
    if (id < 0 || id >= kMaxNamedId)
        return;
    auto i = static_cast<std::size_t>(id);
    if (names.size() <= i)
        names.resize(i + 1);
    names[i] = name;
}

/** Exported µs (3 fractional digits) back to integer ns. */
Tick
ticksFromMicros(double us)
{
    return static_cast<Tick>(std::llround(us * 1000.0));
}

} // namespace

bool
parseLabel(std::string_view text, std::string_view cat, obs::TraceEvent &ev,
           std::string_view &name)
{
    constexpr std::string_view kFail = "!fail";
    bool failed = cat == obs::eventKindName(obs::EventKind::Transfer) &&
                  text.ends_with(kFail);
    if (failed)
        text.remove_suffix(kFail.size());
    for (std::size_t i = 0; i < std::size(obs::kLabels); ++i) {
        const obs::LabelInfo &row = obs::kLabels[i];
        std::string_view fixed = row.text;
        if (cat != obs::eventKindName(row.kind))
            continue;
        std::string_view rest;
        if (row.form == obs::LabelForm::Phase) {
            // "<tensor name>:<phase>"; tensor names may hold colons.
            auto colon = text.rfind(':');
            if (colon == std::string_view::npos ||
                text.substr(colon + 1) != fixed)
                continue;
            rest = text.substr(0, colon);
        } else if (text.starts_with(fixed)) {
            rest = text.substr(fixed.size());
        } else {
            continue;
        }
        if (row.form == obs::LabelForm::Plain && !rest.empty())
            continue;
        std::int64_t number = 0;
        if (row.form == obs::LabelForm::Number) {
            auto [end, ec] =
                std::from_chars(rest.data(), rest.data() + rest.size(),
                                number);
            if (rest.empty() || ec != std::errc() ||
                end != rest.data() + rest.size())
                continue;
            rest = {};
        }
        ev.label = static_cast<obs::Label>(i);
        ev.number = number;
        ev.failed = failed;
        name = rest;
        return true;
    }
    return false;
}

bool
importChromeTrace(const std::string &path, TraceBundle &out,
                  std::string *err)
{
    json::Value root;
    if (!json::parseFile(path, root, err))
        return false;
    if (root.kind != json::Value::Obj || !root.has("traceEvents")) {
        if (err)
            *err = "'" + path + "' is not a Chrome trace artifact";
        return false;
    }

    const json::Value &other = root["otherData"];
    bool ok = true;
    out.dropped = other["dropped"].asU64(ok);
    if (!ok) {
        if (err)
            *err = "'" + path + "' has a malformed dropped count";
        return false;
    }
    for (const std::string &key : other.keys) {
        if (key == "recorded" || key == "dropped")
            continue;
        const json::Value &val = other[key];
        if (val.kind == json::Value::Str)
            out.meta.emplace_back(key, val.str);
    }

    for (const json::Value &jev : root["traceEvents"].arr) {
        const std::string &ph = jev["ph"].str;
        if (ph == "M")
            continue; // process/thread metadata
        obs::TraceEvent ev;
        std::string_view name;
        if (!parseLabel(jev["name"].str, jev["cat"].str, ev, name)) {
            ++out.unknown;
            continue;
        }
        ev.closes = ph == "e" && ev.kind() == obs::EventKind::Lifetime;
        if (ph.size() != 1 ||
            ph[0] != obs::kPhaseCodes[static_cast<int>(ev.phase())]) {
            ++out.unknown;
            continue;
        }
        ev.ts = ticksFromMicros(jev["ts"].asDouble());
        const json::Value &args = jev["args"];
        ev.tensor = args.has("tensor") ? args["tensor"].asI64(ok) : -1;
        ev.op = args.has("op") ? args["op"].asI64(ok) : -1;
        ev.bytes = args["bytes"].asU64(ok);
        switch (ev.phase()) {
          case obs::EventPhase::Complete:
            ev.dur = ticksFromMicros(jev["dur"].asDouble());
            break;
          case obs::EventPhase::Instant:
          case obs::EventPhase::Counter:
            ev.value = args["value"].asDouble();
            break;
          case obs::EventPhase::SpanBegin:
          case obs::EventPhase::SpanEnd:
            ev.tensor = jev["id"].asI64(ok);
            break;
        }
        if (!ok) {
            ++out.unknown; // an id or size no integer holds
            ok = true;
            continue;
        }
        switch (obs::labelInfo(ev.label).form) {
          case obs::LabelForm::Tensor:
          case obs::LabelForm::Phase:
            keepName(out.names.tensors, ev.tensor, name);
            break;
          case obs::LabelForm::Op:
            keepName(out.names.ops, ev.op, name);
            break;
          default:
            break;
        }
        out.events.push_back(ev);
    }
    return true;
}

} // namespace capu::prof
