/**
 * @file
 * Exporters: Chrome trace_event JSON + metrics CSV/JSON.
 *
 * writeChromeTrace() emits the tracer's buffered events in the Chrome
 * trace_event "JSON object" format, loadable in Perfetto
 * (https://ui.perfetto.dev) or chrome://tracing. The mapping:
 *
 *   Complete  -> "X" with ts/dur          (stream occupancy, transfers)
 *   Instant   -> "i" thread-scoped        (decisions, OOM steps, markers)
 *   Counter   -> "C"                      (bytes-in-use samples)
 *   SpanBegin -> "b" async, id = tensor   (tensor residency phases)
 *   SpanEnd   -> "e"
 *
 * Tracks become tids under pid 0, labeled via thread_name metadata events.
 * Timestamps convert from simulation nanoseconds to the microseconds the
 * format requires (fractional µs keeps full ns precision).
 *
 * The metrics exporters emit per-iteration snapshot rows (CSV, one column
 * per metric) or the full registry (JSON: totals, gauges, histograms, and
 * the iteration table).
 */

#ifndef CAPU_OBS_CHROME_TRACE_HH
#define CAPU_OBS_CHROME_TRACE_HH

#include <iosfwd>
#include <string>

#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace capu::obs
{

/** Labels are formatted with tensor and op names from `names`. */
void writeChromeTrace(std::ostream &os, const Tracer &tracer,
                      const Names &names);
/** Returns false (and logs) if the file cannot be opened. */
bool writeChromeTraceFile(const std::string &path, const Tracer &tracer,
                          const Names &names);

void writeMetricsCsv(std::ostream &os, const MetricsRegistry &metrics);
void writeMetricsJson(std::ostream &os, const MetricsRegistry &metrics);
/** Dispatches on extension: ".json" -> JSON, anything else -> CSV. */
bool writeMetricsFile(const std::string &path, const MetricsRegistry &metrics);

/** Escape a string for embedding inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

} // namespace capu::obs

#endif // CAPU_OBS_CHROME_TRACE_HH
