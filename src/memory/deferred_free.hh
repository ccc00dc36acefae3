/**
 * @file
 * Queue of GPU frees that take effect at a future tick.
 *
 * A decoupled swap-out releases its chunk only when the D2H transfer
 * completes; a kernel's temporaries release when the kernel completes. The
 * executor therefore never frees immediately — it posts (tick, handle) pairs
 * here and applies all matured frees before each allocation. When an
 * allocation fails, waiting for `nextMaturity()` and retrying is exactly the
 * paper's "delay sync when OOM" behaviour.
 */

#ifndef CAPU_MEMORY_DEFERRED_FREE_HH
#define CAPU_MEMORY_DEFERRED_FREE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "memory/bfc_allocator.hh"
#include "support/units.hh"

namespace capu
{

class DeferredFreeQueue
{
  public:
    /** Post a free of `handle` effective at `when`. */
    void post(Tick when, MemHandle handle);

    /** Apply every matured free (when <= now) to `alloc`. */
    void applyUpTo(Tick now, BfcAllocator &alloc);

    /** Earliest pending maturity, if any free is outstanding. */
    std::optional<Tick> nextMaturity() const;

    std::size_t pending() const { return heap_.size(); }

    bool empty() const { return heap_.empty(); }

    /** Whether `handle` has a posted-but-unmatured free. */
    bool isPending(MemHandle handle) const;

    /**
     * capureplay: add `delta` to every pending maturity. Sequence numbers
     * are preserved, so equal-maturity frees still apply in post order.
     */
    void shiftPending(Tick delta);

    /** Pending (maturity, handle) pairs in application order (digests). */
    std::vector<std::pair<Tick, MemHandle>> snapshotPending() const;

  private:
    std::unordered_multiset<MemHandle> pendingHandles_;
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        MemHandle handle;
        bool operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace capu

#endif // CAPU_MEMORY_DEFERRED_FREE_HH
