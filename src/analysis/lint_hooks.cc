#include "analysis/lint_hooks.hh"

#include <iostream>
#include <memory>
#include <utility>

#include "analysis/baseline_plans.hh"
#include "analysis/happens_before.hh"
#include "support/logging.hh"

namespace capu
{

namespace
{

/** Record one access on the corrected (infinite-memory) timeline. */
void
recordCorrected(AccessTracker &tracker, ExecContext &ctx,
                const AccessEvent &event)
{
    AccessRecord rec;
    rec.tensor = event.tensor;
    rec.accessIndex = event.accessIndex;
    Tick stall = ctx.memStallSoFar();
    rec.time = event.when > stall ? event.when - stall : 0;
    rec.isOutput = event.isOutput;
    rec.op = event.op;
    tracker.record(rec);
}

} // namespace

LintReport
runPlanLint(const Plan &plan, const Graph &graph,
            const AccessTracker &tracker, ExecContext &ctx,
            const LintHookOptions &hook, const std::string &who)
{
    PlanCheckerOptions opts = hook.checker;
    if (opts.gpuCapacity == 0)
        opts.gpuCapacity = ctx.gpuCapacity();
    if (opts.hostCapacity == 0)
        opts.hostCapacity = ctx.hostCapacity();
    if (opts.capacitySlack == 0) {
        // The memory-window replay is a model of the executor, not the
        // executor: allocator rounding, workspace churn and transfer
        // timing all wobble a few percent. Passive mode stays armed as
        // the runtime safety net, so give the static rule matching slack.
        opts.capacitySlack = opts.gpuCapacity / 20;
    }

    auto bytes_of = [&](TensorId id) { return ctx.tensorBytes(id); };
    auto swap_time = [&](std::uint64_t bytes) { return ctx.swapTime(bytes); };

    PlanChecker checker(graph, tracker, opts);
    LintReport report = checker.check(plan, bytes_of, swap_time);
    report.append(checkHappensBefore(
        buildPlanEventGraph(plan, tracker, bytes_of, swap_time),
        &graph));

    if (hook.printFindings && !report.diags.empty()) {
        std::cerr << who << " plan lint findings:\n";
        printLintReport(std::cerr, report, graph);
    }
    if (report.clean()) {
        inform("{} {}", who, report.summary());
    } else if (report.errorCount() > 0 && hook.panicOnError) {
        panic("{} plan failed lint: {}", who, report.summary());
    }
    return report;
}

void
enablePlanLint(CapuchinOptions &opts, LintHookOptions hook)
{
    opts.planAudit = [hook](const Plan &plan, const AccessTracker &tracker,
                            ExecContext &ctx) {
        runPlanLint(plan, ctx.graph(), tracker, ctx, hook, "capuchin");
    };
}

void
enablePlanLint(VdnnPolicy &policy, LintHookOptions hook)
{
    auto tracker = std::make_shared<AccessTracker>();
    policy.setAudit(
        [tracker](ExecContext &ctx, const AccessEvent &event) {
            recordCorrected(*tracker, ctx, event);
        },
        [tracker, hook](const VdnnPolicy &p, ExecContext &ctx) {
            Plan plan = planFromOffloadTargets(
                ctx.graph(), *tracker, p.targets(),
                [&](TensorId id) { return ctx.tensorBytes(id); },
                [&](std::uint64_t bytes) { return ctx.swapTime(bytes); });
            runPlanLint(plan, ctx.graph(), *tracker, ctx, hook, p.name());
        });
}

void
enablePlanLint(CheckpointingPolicy &policy, LintHookOptions hook)
{
    auto tracker = std::make_shared<AccessTracker>();
    policy.setAudit(
        [tracker](ExecContext &ctx, const AccessEvent &event) {
            recordCorrected(*tracker, ctx, event);
        },
        [tracker, hook](const CheckpointingPolicy &p, ExecContext &ctx) {
            Plan plan = planFromDropSet(
                ctx.graph(), *tracker, p.dropSet(),
                [&](TensorId id) { return ctx.tensorBytes(id); });
            runPlanLint(plan, ctx.graph(), *tracker, ctx, hook, p.name());
        });
}

} // namespace capu
