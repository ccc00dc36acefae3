/**
 * @file
 * Spans the benchmark records around its own calls into the simulator's
 * layers (the program itself carries no spans yet). A span has a name
 * "<layer>.<what>", start and end on the host steady clock, the span
 * that was open when it started, and a request id for serve calls.
 * Spans stay in memory and are written out when the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    /** "<layer>.<what>"; a string literal, never owned. */
    const char *name = "";
    double startUs = 0;
    double endUs = 0;
    /** Index of the enclosing span, -1 at top level. */
    int parent = -1;
    /** Serve request the span belongs to, -1 otherwise. */
    std::int64_t request = -1;
};

/** The layer a span belongs to: its name up to the first '.'. */
std::string spanLayer(const char *name);

/**
 * Each span's self time in microseconds: its duration minus the part of
 * its interval that its direct children cover. Overlapping children are
 * counted once, and a child sticking out of its parent is clipped to it.
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/** Self time summed per layer, in milliseconds. */
std::map<std::string, double> layerSelfMs(const std::vector<Span> &spans);

/** Write the spans as one JSON array, one object per span. */
void writeSpansJson(std::ostream &os, const std::vector<Span> &spans);

/**
 * Records spans when enabled; when disabled every call is one branch, so
 * the untraced run pays nothing measurable. Single-threaded: the
 * benchmark drives the simulator from one thread.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; -1 when disabled. */
    int open(const char *name, std::int64_t request = -1);
    /** Close span `id` (a no-op for -1). Spans close innermost first. */
    void close(int id);
    /** Rename span `id`, e.g. once a call's outcome classifies it. */
    void rename(int id, const char *name);

    const std::vector<Span> &spans() const { return spans_; }

    /** RAII open/close around one call. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name, std::int64_t request = -1)
            : rec_(rec), id_(rec.open(name, request))
        {
        }
        ~Scope() { rec_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int id() const { return id_; }

      private:
        SpanRecorder &rec_;
        int id_;
    };

  private:
    double nowUs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
