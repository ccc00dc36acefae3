/**
 * @file
 * Best-Fit-with-Coalescing GPU memory allocator.
 *
 * Reimplementation of the allocation algorithm TensorFlow uses for its GPU
 * pool (BFCAllocator): a single contiguous arena is carved into chunks kept
 * in size-class bins; allocation takes the smallest free chunk that fits
 * (splitting if profitable), deallocation coalesces with free neighbours.
 * Because Capuchin's passive mode is *triggered by this allocator failing*,
 * fidelity here matters: fragmentation decides when OOM fires.
 *
 * Addresses are plain offsets into a virtual arena — no real memory is
 * touched. The arena is sized by the device's memCapacity.
 */

#ifndef CAPU_MEMORY_BFC_ALLOCATOR_HH
#define CAPU_MEMORY_BFC_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "support/units.hh"

namespace capu
{

/** Opaque handle to an allocation (its arena offset). */
using MemHandle = std::uint64_t;

struct BfcStats
{
    std::uint64_t bytesInUse = 0;
    std::uint64_t peakBytesInUse = 0;
    std::uint64_t totalAllocs = 0;
    std::uint64_t totalFrees = 0;
    std::uint64_t failedAllocs = 0;
    std::uint64_t largestFreeChunk = 0;
    std::uint64_t freeChunkCount = 0;
    /** Chunk splits performed by allocate() (fragmentation pressure). */
    std::uint64_t splitCount = 0;
    /** Neighbour coalesces performed by deallocate(). */
    std::uint64_t mergeCount = 0;
};

/** Anti-fragmentation features (defaults on; ablation bench toggles). */
struct BfcOptions
{
    /** Place large chunks at the arena top, small at the bottom. */
    bool segregateLarge = true;
    /** Round large requests to geometric size classes (<= 12.5% waste). */
    bool sizeClasses = true;
};

class BfcAllocator
{
  public:
    /** @param capacity Arena size in bytes. */
    explicit BfcAllocator(std::uint64_t capacity, BfcOptions options = {});

    /** Placement preference for allocate(). */
    enum class Placement
    {
        Auto, ///< small requests low/best-fit, large requests high
        Low,  ///< force low best-fit (persistent weights at setup)
    };

    /**
     * Allocate `bytes` (rounded up to the 256-byte cudaMalloc granularity).
     * @return The chunk offset, or nullopt if no free chunk fits.
     */
    std::optional<MemHandle> allocate(std::uint64_t bytes,
                                      Placement placement = Placement::Auto);

    /**
     * capureplay: allocate exactly [offset, offset + bytes), which must lie
     * inside one free chunk (`bytes` is a chunk size, already rounded).
     * Panics otherwise.
     */
    void allocateAt(MemHandle offset, std::uint64_t bytes);

    /** Release an allocation; coalesces with free neighbours. */
    void deallocate(MemHandle handle);

    /** Bytes currently allocated (after rounding). */
    std::uint64_t bytesInUse() const { return stats_.bytesInUse; }

    /** Free bytes (capacity - in use); may be fragmented. */
    std::uint64_t bytesFree() const { return capacity_ - stats_.bytesInUse; }

    std::uint64_t capacity() const { return capacity_; }

    /**
     * Whether an allocation of `bytes` would currently succeed
     * (checks an actual fitting chunk, not just total free bytes).
     */
    bool canAllocate(std::uint64_t bytes) const;

    /** Size of an outstanding allocation (rounded). */
    std::uint64_t allocationSize(MemHandle handle) const;

    const BfcStats &stats() const;

    /**
     * Fragmentation gauge: 1 - largestFreeChunk / bytesFree, i.e. the
     * share of free memory a single contiguous allocation cannot reach.
     * 0 when the arena is fully occupied (or one chunk holds all slack).
     */
    double
    fragmentation() const
    {
        std::uint64_t free_bytes = bytesFree();
        if (free_bytes == 0)
            return 0.0;
        return 1.0 - static_cast<double>(stats().largestFreeChunk) /
                         static_cast<double>(free_bytes);
    }

    /** One arena chunk, for fragmentation analysis / targeted eviction. */
    struct ChunkInfo
    {
        std::uint64_t offset;
        std::uint64_t size;
        bool free;
    };

    /** Current arena layout, ascending by offset. */
    std::vector<ChunkInfo> snapshot() const;

    /** Reset peak tracking to current occupancy. */
    void resetPeak();

    /** Self-check: chunks tile the arena, bins consistent. Panics if not. */
    void checkInvariants() const;

    /** Allocation request granularity (matches TF's kMinAllocationSize). */
    static constexpr std::uint64_t kAlignment = 256;

    /** Requests at least this big place at the high end of the arena. */
    static constexpr std::uint64_t kLargeThreshold = 64ull << 20;



  private:
    struct Chunk
    {
        std::uint64_t offset;
        std::uint64_t size;
        bool free;
    };

    // Chunks keyed by offset; neighbours are map neighbours.
    std::map<std::uint64_t, Chunk> chunks_;
    // Free chunks ordered by (size, offset) -> best fit is lower_bound.
    std::set<std::pair<std::uint64_t, std::uint64_t>> freeBySize_;
    // Free chunks keyed by offset -> size. The large-placement path wants
    // the *highest-addressed* fitting chunk; walking this map backwards
    // finds it at the first fit instead of scanning every free chunk of
    // sufficient size. Under segregated placement the top of the arena is
    // exactly where the big free chunks live, so the reverse walk almost
    // always stops after one or two probes.
    std::map<std::uint64_t, std::uint64_t> freeByOffset_;

    std::uint64_t capacity_;
    BfcOptions options_;
    mutable BfcStats stats_;

    std::uint64_t roundUp(std::uint64_t bytes) const;
    void insertFree(const Chunk &c);
    void eraseFree(const Chunk &c);
    void refreshDerivedStats() const;
};

} // namespace capu

#endif // CAPU_MEMORY_BFC_ALLOCATOR_HH
