/**
 * @file
 * Static plan verifier ("capulint") for guided-execution plans.
 *
 * Guided execution blindly trusts the PolicyMaker: an eviction placed
 * after a back-access, a prefetch whose FT is negative while the plan
 * claims a hidden swap, or a recomputation whose sources were themselves
 * evicted does not fail loudly — it silently corrupts the measured
 * speedups (or panics deep inside the executor, far from the buggy
 * decision). The PlanChecker proves a set of plan invariants against the
 * recorded access trace *before* guided execution starts and emits
 * structured diagnostics.
 *
 * One placement pass resolves each item's trace anchors and derives the
 * ticks its GPU chunk is released and re-acquired, with the executor's
 * conventions: a swap frees at transfer completion and re-allocates at
 * its in-trigger (or one SwapTime before the back-access); a drop frees
 * at the evicting kernel and re-allocates at the replay. Every rule reads
 * that placement, and each invariant has exactly one rule (DESIGN.md §7
 * has the full table with citations):
 *
 *  duplicate-item           a tensor may be evicted/prefetched once per plan
 *  missing-access           the item's access indices must exist in the trace
 *  lifetime-empty-interval  the back-access strictly follows the eviction
 *  time-inversion           (warning) the corrected timeline runs backwards
 *                           across the pair — interval math is meaningless
 *  lifetime-use-after-free  no access may fall inside the eviction window
 *  negative-ft-prefetch     a swap claimed hidden (overhead < exposure)
 *                           whose FT is negative under the cost model —
 *                           the feedback loop can never fix it (Eq. 1)
 *  exposed-swap             (warning) FT < 0 but the exposure is budgeted
 *  prefetch-*               the in-trigger must exist in the trace (error);
 *                           one that is absent, late, or fires while the
 *                           tensor is still resident degrades to
 *                           on-demand fetching (warnings, §4.4)
 *  lifetime-source-window / every replay source is resident, host-backed
 *  lifetime-lineage-cycle   or regenerable at replay time, acyclically
 *                           (errors); recompute-chain-too-long (warning —
 *                           an MSPS red flag, §4.4)
 *  memory-overcommit        replaying the plan over the hypothetical usage
 *                           curve must fit GPU capacity; error when the
 *                           plan also fails to deliver its claimed savings
 *                           (re-planning cannot fix that), else warning —
 *                           passive mode + refinement absorb the rest
 *  host-overcommit          host staging must fit the HostPool capacity
 *
 * Findings are reported in plan-item order; the plan-wide memory rules
 * come last.
 */

#ifndef CAPU_ANALYSIS_PLAN_CHECKER_HH
#define CAPU_ANALYSIS_PLAN_CHECKER_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/access_tracker.hh"
#include "core/policy_maker.hh"
#include "graph/graph.hh"
#include "support/units.hh"

namespace capu
{

enum class LintSeverity
{
    Warning, ///< suspicious but executable; runtime will degrade, not break
    Error,   ///< the plan violates a guided-execution invariant
};

const char *lintSeverityName(LintSeverity severity);

/** One finding: severity, rule name, offending tensor/access, prose. */
struct LintDiagnostic
{
    LintSeverity severity = LintSeverity::Error;
    std::string rule;                  ///< kebab-case rule name
    TensorId tensor = kInvalidTensor;  ///< kInvalidTensor for plan-wide rules
    int accessIndex = 0;               ///< 0 when not tied to one access
    std::string message;
};

struct LintReport
{
    std::vector<LintDiagnostic> diags;
    /** Static peak bound of the replayed plan (activations + weights) and
     *  the tick it is first attained; set by PlanChecker::check. */
    std::uint64_t peakBound = 0;
    Tick peakAt = 0;

    /** Append one finding. */
    void add(LintSeverity severity, std::string rule, TensorId tensor,
             int access, std::string message);
    /** Move `other`'s findings to the end of this report. */
    void append(LintReport &&other);

    std::size_t errorCount() const;
    std::size_t warningCount() const;
    bool clean() const { return errorCount() == 0; }

    /** e.g. "plan lint: 2 errors, 1 warning in 31 items". */
    std::string summary() const;
};

struct PlanCheckerOptions
{
    /** GPU pool capacity; 0 disables the memory-overcommit rule. */
    std::uint64_t gpuCapacity = 0;
    /** Host staging capacity; 0 disables the host-overcommit rule. */
    std::uint64_t hostCapacity = 0;
    /** Tolerated overshoot of the replayed curve beyond GPU capacity
     *  (passive mode stays armed as a safety net, §5.3). */
    std::uint64_t capacitySlack = 0;
    /** Max ops one recomputation replay may chain through. */
    std::size_t maxRecomputeChain = 256;
};

/**
 * Analyzes one Plan against the measured access trace. Like the
 * PolicyMaker it needs the graph only for lineage and tensor kinds, so a
 * graph reconstructed from a serialized trace (reconstructGraph) works —
 * the checker stays usable offline and in eager mode.
 */
class PlanChecker
{
  public:
    using BytesFn = std::function<std::uint64_t(TensorId)>;
    using SwapTimeFn = std::function<Tick(std::uint64_t)>;

    PlanChecker(const Graph &graph, const AccessTracker &tracker,
                PlanCheckerOptions opts = {});

    /**
     * Run every rule over `plan`.
     * @param tensor_bytes Allocation size per tensor (same fn the plan was
     *        built with); also sizes each swap's transfer.
     * @param swap_time PCIe transfer time for a byte count.
     */
    LintReport check(const Plan &plan, const BytesFn &tensor_bytes,
                     const SwapTimeFn &swap_time) const;

  private:
    const Graph &graph_;
    const AccessTracker &tracker_;
    PlanCheckerOptions opts_;

    struct Placement; // one item placed on the measured timeline
    using PlacementMap = std::unordered_map<TensorId, const Placement *>;

    bool place(const PlannedEviction &item, const BytesFn &tensor_bytes,
               const SwapTimeFn &swap_time, Placement &p,
               LintReport &report) const;
    void checkPrefetch(const Placement &p, LintReport &report) const;
    void checkRecompute(const Placement &p, const PlacementMap &placed,
                        LintReport &report) const;
    void checkMemory(const Plan &plan, const PlacementMap &placed,
                     const BytesFn &tensor_bytes, LintReport &report) const;
};

/** Render the report as an aligned diagnostics table (stats/report). */
void printLintReport(std::ostream &os, const LintReport &report,
                     const Graph &graph);

} // namespace capu

#endif // CAPU_ANALYSIS_PLAN_CHECKER_HH
