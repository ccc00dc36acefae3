/**
 * @file
 * Pinned host (CPU DRAM) staging pool for swapped-out tensors.
 *
 * The paper's testbed has 256 GB of host RAM — effectively unbounded
 * relative to the GPU — but we still account every byte so experiments can
 * report host-side pressure, and tests can cap it to exercise the
 * "host pool exhausted" failure path.
 */

#ifndef CAPU_MEMORY_HOST_POOL_HH
#define CAPU_MEMORY_HOST_POOL_HH

#include <cstdint>
#include <map>

#include "support/units.hh"

namespace capu
{

class HostPinnedPool
{
  public:
    explicit HostPinnedPool(std::uint64_t capacity = 256ull << 30);

    /** Reserve `bytes`; returns a host handle, or 0 on exhaustion. */
    std::uint64_t allocate(std::uint64_t bytes);

    void deallocate(std::uint64_t handle);

    std::uint64_t bytesInUse() const { return inUse_; }
    std::uint64_t peakBytesInUse() const { return peak_; }
    std::uint64_t capacity() const { return capacity_; }

    /** Allocations rejected by exhaustion since construction. */
    std::uint64_t failedAllocs() const { return failedAllocs_; }

  private:
    std::uint64_t capacity_;
    std::uint64_t inUse_ = 0;
    std::uint64_t peak_ = 0;
    std::uint64_t failedAllocs_ = 0;
    std::uint64_t nextHandle_ = 1;
    std::map<std::uint64_t, std::uint64_t> sizes_;
};

} // namespace capu

#endif // CAPU_MEMORY_HOST_POOL_HH
