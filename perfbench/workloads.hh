/**
 * @file
 * The benchmark's four workloads. Each runs Capuchin in graph mode on the
 * default P100 configuration, single-threaded, and is executed as a
 * sequence of *passes*: one pass is the workload's whole unit of work,
 * set up from scratch, so the host time of a pass is a sample and the
 * simulated outcome of every pass must be the same (serve-churn passes
 * draw different request streams but must plan every key identically).
 *
 *  - train-deep: deep, oversubscribed graphs with plan lint on, where
 *    Capuchin's feedback keeps shifting triggers and replay never arms;
 *  - train-long: long runs of graphs on which replay arms;
 *  - maxbatch: the Table-2 max-batch search;
 *  - serve-churn: a closed loop of plan requests over a Zipf-like key
 *    stream against a plan cache smaller than the key set.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench
{

enum class Workload
{
    TrainDeep,
    TrainLong,
    MaxBatch,
    ServeChurn,
};

const char *workloadName(Workload w);
std::optional<Workload> workloadFromName(std::string_view name);

/** What every pass of a run is derived from. */
struct RunInputs
{
    Workload workload = Workload::TrainDeep;
    std::uint64_t seed = 0;
    /** Scratch directory for the run's files (serve plan dirs). */
    std::string workdir;
};

/** How one pass is run; the defaults are the end-to-end configuration. */
struct PassOptions
{
    capu::obs::ObsLevel obs = capu::obs::ObsLevel::Off;
    /** Train workloads: the steps one Session::run call takes. */
    enum class Stepping
    {
        Epoch, ///< one epoch per call: the end-to-end request
        Step,  ///< one step per call, for per-step spans
        Whole, ///< the model's whole run in one call
    };
    Stepping stepping = Stepping::Epoch;
    /** serve-churn: plan-cache capacity in entries. */
    std::size_t cacheEntries = 8;
};

struct PassResult
{
    /** Host time of the pass after set-up. */
    double hostS = 0;
    /** Graph builds plus Session / PlanService construction. */
    double setupS = 0;
    /**
     * Host latency of each request, in ms. A request is the workload's
     * unit a user waits on: a training epoch (one Session::run call), a
     * max-batch probe session, or a plan request.
     */
    std::vector<double> requestMs;
    Tally tally;
    /**
     * The simulated outcome, keyed by name. Deterministic: it must be
     * equal across passes, observability levels and tracing.
     */
    std::map<std::string, double> sim;
    /** Per-layer counts read from the program after the pass. */
    std::map<std::string, double> layer;
};

/**
 * Run pass `pass` of the workload. Spans go to `spans` (a disabled
 * recorder records nothing). When spans are on, the pass also times a
 * standalone PolicyMaker::build per trained model, after its host time
 * is taken.
 */
PassResult runPass(const RunInputs &in, int pass, const PassOptions &opt,
                   SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
