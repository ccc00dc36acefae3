/**
 * @file
 * Chaos sweep: the capuchaos robustness matrix (DESIGN.md §9).
 *
 * Runs a model-zoo subset under every documented fault plan and checks
 * the two properties the degradation design promises: every run
 * *completes* (faults degrade service, they never abort training), and
 * the slowdown stays bounded (recovery paths cost transfers and replays,
 * not livelock). The recovery counters printed per cell are the same
 * ones capusim reports and the fault-annotated traces carry.
 *
 * Exit code is non-zero if any run dies with an unhandled OOM or
 * exceeds the slowdown bound — this bench doubles as the CI chaos gate.
 */

#include <iostream>
#include <iterator>

#include "analysis/lint_hooks.hh"
#include "bench/common.hh"
#include "faults/fault_engine.hh"
#include "faults/fault_spec.hh"

using namespace capu;
using namespace capu::bench;

namespace
{

struct FaultPlanRow
{
    const char *label;
    const char *spec;
};

/** One fault plan per documented clause, plus everything at once. */
const FaultPlanRow kPlans[] = {
    {"none", ""},
    {"pcie-window", "pcie:0.5@500-2500"},
    {"jitter", "jitter:0.15"},
    {"hostcap", "hostcap:4GiB"},
    {"swapfail", "swapfail:p=0.05,retries=3"},
    {"storm", "pcie:0.6@500-2500;jitter:0.1;hostcap:6GiB;"
              "hostfail:p=0.02;swapfail:p=0.02,retries=3"},
};

struct Workload
{
    ModelKind kind;
    std::int64_t batch;
};

const Workload kZoo[] = {
    {ModelKind::Vgg16, 230},
    {ModelKind::ResNet50, 320},
    {ModelKind::BertBase, 64},
};

/** Recovery paths cost transfers and replays, never livelock. */
constexpr double kSlowdownBound = 6.0;
constexpr int kIterations = 6;

std::string
recoverySummary(const faults::FaultStats &fs)
{
    std::string out;
    auto add = [&](const char *k, std::uint64_t v) {
        if (v == 0)
            return;
        if (!out.empty())
            out += " ";
        out += k;
        out += "=";
        out += std::to_string(v);
    };
    add("retry", fs.swapRetries);
    add("forced", fs.swapForced);
    add("drop", fs.dropFallbacks);
    add("skip", fs.swapSkips);
    add("miss", fs.prefetchMisses);
    add("remeasure", fs.remeasures);
    add("shift", fs.feedbackShifts);
    return out.empty() ? "-" : out;
}

} // namespace

/** One (workload, fault plan) cell, computed independently of the rest. */
struct CellResult
{
    bool oom = false;
    bool faulted = false;
    double wall = 0.0; ///< simulated seconds — host scheduling can't move it
    std::string recovery;
    std::string postMortem;
};

CellResult
runCell(const Workload &w, const FaultPlanRow &p)
{
    ExecConfig cfg;
    cfg.faults = faults::parseFaultSpec(p.spec);
    cfg.seed = 42;
    CapuchinOptions opts;
    // Lint stays fatal on the clean baseline; under injected
    // faults plan-level findings (e.g. host staging overcommit
    // against a capped pool) are the expected inputs to the
    // degradation paths, so the hook only observes.
    LintHookOptions hook;
    hook.panicOnError = !cfg.faults.enabled();
    hook.printFindings = false;
    enablePlanLint(opts, hook);
    if (cfg.faults.enabled())
        opts.driftThreshold = 0.35; // arm the drift watchdog
    Session session(buildModel(w.kind, w.batch), cfg,
                    makeCapuchinPolicy(opts));
    auto r = session.run(kIterations);

    CellResult cell;
    cell.faulted = cfg.faults.enabled();
    if (r.oom) {
        cell.oom = true;
        cell.postMortem = r.postMortem();
        return cell;
    }
    cell.wall = ticksToSec(r.iterations.back().end -
                           r.iterations.front().begin);
    cell.recovery =
        recoverySummary(session.executor().faults().stats());
    return cell;
}

int
main()
{
    banner("Chaos sweep: model zoo x fault plans (Capuchin, plan lint on)",
           "robustness matrix, DESIGN.md §9");

    // Every cell is an independent (model, fault plan) simulation whose
    // "wall" time is *simulated* ticks, so the matrix fans out across the
    // worker pool and the serial pass below only formats. Results land in
    // index-addressed slots; the printed table is identical at any thread
    // count.
    constexpr std::size_t kNumPlans = std::size(kPlans);
    constexpr std::size_t kNumZoo = std::size(kZoo);
    auto cells = sweepParallel(kNumZoo * kNumPlans, [&](std::size_t i) {
        return runCell(kZoo[i / kNumPlans], kPlans[i % kNumPlans]);
    });

    Table t({"model", "plan", "completed", "slowdown", "recovery"});
    bool ok = true;

    for (std::size_t zi = 0; zi < kNumZoo; ++zi) {
        const Workload &w = kZoo[zi];
        double base_wall = 0.0;
        for (std::size_t pi = 0; pi < kNumPlans; ++pi) {
            const FaultPlanRow &p = kPlans[pi];
            const CellResult &cell = cells[zi * kNumPlans + pi];

            std::string name = std::string(modelName(w.kind)) + "@" +
                               std::to_string(w.batch);
            if (cell.oom) {
                ok = false;
                t.addRow({name, p.label, "OOM", "-", "-"});
                std::cerr << "\nunhandled OOM under plan '" << p.label
                          << "':\n"
                          << cell.postMortem << "\n";
                continue;
            }

            std::string slowdown = "1.00x";
            if (!cell.faulted) {
                base_wall = cell.wall;
            } else if (base_wall > 0.0) {
                double ratio = cell.wall / base_wall;
                slowdown = cellDouble(ratio, 2) + "x";
                if (ratio > kSlowdownBound) {
                    ok = false;
                    slowdown += " (UNBOUNDED)";
                }
            }
            t.addRow({name, p.label, "yes", slowdown, cell.recovery});
        }
    }

    t.print(std::cout);
    std::cout << "\nTakeaway: every fault class degrades to a slower but "
                 "complete run — swap failures retry with backoff, host-"
                 "pool exhaustion falls back to recompute-eviction, plan "
                 "drift re-enters measured execution — and the combined "
                 "storm stays within " << kSlowdownBound
              << "x of the fault-free run.\n";
    if (!ok) {
        std::cout << "\nCHAOS SWEEP FAILED (see rows above)\n";
        return 1;
    }
    return 0;
}
