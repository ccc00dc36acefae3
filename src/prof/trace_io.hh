/**
 * @file
 * Chrome-trace import: the inverse of obs::writeChromeTrace.
 *
 * capusim exports its event ring as Chrome trace_event JSON (--trace-json)
 * for Perfetto; capuprof consumes the same artifact offline. The exporter
 * was made lossless for this purpose (instant `value`, span `bytes` ride
 * in args), so a round-tripped event list profiles identically to the
 * live ring it came from. Metadata events (process/thread names) are
 * skipped; otherData carries the run meta and the ring's drop count.
 *
 * This is the only code that parses label text: each event's name and
 * category map back to a row of the label table (obs/event.hh), and the
 * tensor and op names the text carried become the bundle's Names, so an
 * imported trace formats and digests exactly like the live one.
 */

#ifndef CAPU_PROF_TRACE_IO_HH
#define CAPU_PROF_TRACE_IO_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event.hh"

namespace capu::prof
{

struct TraceBundle
{
    std::vector<obs::TraceEvent> events;
    obs::Names names;
    /** Events skipped: a label no table row produces, or a wrong phase. */
    std::uint64_t unknown = 0;
    std::vector<std::pair<std::string, std::string>> meta;
    std::uint64_t dropped = 0;
};

/**
 * Parse a writeChromeTrace() artifact. Returns false (with the reason in
 * *err when provided) on unreadable files, malformed JSON, or JSON that
 * is not a Chrome trace object.
 */
bool importChromeTrace(const std::string &path, TraceBundle &out,
                       std::string *err = nullptr);

/**
 * Parse one exported event name of Chrome category `cat` back into its
 * label: sets ev.label, ev.number and ev.failed, and points `name` at the
 * tensor or op name the text carried (empty for Plain and Number forms).
 * Returns false for text that no row of the label table produces.
 */
bool parseLabel(std::string_view text, std::string_view cat,
                obs::TraceEvent &ev, std::string_view &name);

} // namespace capu::prof

#endif // CAPU_PROF_TRACE_IO_HH
