/**
 * @file
 * Test-only reference oracle for PolicyMaker's Algorithm-2 engine.
 *
 * The original full-rescan selection loop: every round it re-evaluates
 * every candidate's swap exposure against the chosen transfers and
 * rescans for the best MSPS. It plans from the same candidates as
 * PolicyMaker (reached through PolicyMaker's one friend declaration) and
 * keeps its own copy of the sort-based per-direction PCIe lane model, so
 * an edit to the production engine or its lane model cannot silently
 * change the oracle. Both must produce the same plan, item for item.
 */

#ifndef CAPU_TESTS_REFERENCE_POLICY_MAKER_HH
#define CAPU_TESTS_REFERENCE_POLICY_MAKER_HH

#include <cstdint>
#include <vector>

#include "core/policy_maker.hh"

namespace capu
{

class ReferencePolicyMaker
{
  public:
    ReferencePolicyMaker(const Graph &graph, const AccessTracker &tracker,
                         PolicyMakerOptions opts = {});

    /** Same contract as PolicyMaker::build. */
    Plan build(std::uint64_t mem_saving_target,
               const PolicyMaker::BytesFn &tensor_bytes,
               const PolicyMaker::SwapTimeFn &swap_time,
               std::uint64_t gpu_capacity) const;

  private:
    using Candidate = PolicyMaker::Candidate;

    PolicyMaker pm_;

    void run(Plan &plan, std::vector<Candidate> cands) const;
};

} // namespace capu

#endif // CAPU_TESTS_REFERENCE_POLICY_MAKER_HH
