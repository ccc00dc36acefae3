#include "memory/bfc_allocator.hh"

#include <algorithm>

#include "support/logging.hh"

namespace capu
{

BfcAllocator::BfcAllocator(std::uint64_t capacity, BfcOptions options)
    : capacity_(capacity / kAlignment * kAlignment), options_(options)
{
    if (capacity_ == 0)
        fatal("BfcAllocator capacity must be at least {} bytes", kAlignment);
    Chunk whole{0, capacity_, true};
    chunks_.emplace(0, whole);
    insertFree(whole);
}

std::uint64_t
BfcAllocator::roundUp(std::uint64_t bytes) const
{
    if (bytes == 0)
        bytes = 1;
    // Large requests round to a geometric size class (granularity = the
    // largest power of two <= size/8, i.e. <= 12.5% overhead): feature
    // maps and gradients of similar layers then share identical chunk
    // sizes, so a freed chunk is reusable verbatim by the next large
    // request instead of leaving an awkward sliver. This buys resistance
    // to the fragmentation that otherwise caps the achievable batch size
    // under heavy eviction churn.
    if (options_.sizeClasses && bytes >= kLargeThreshold) {
        std::uint64_t grain = std::uint64_t(1)
                              << (63 - __builtin_clzll(bytes >> 3));
        return (bytes + grain - 1) / grain * grain;
    }
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
}

void
BfcAllocator::insertFree(const Chunk &c)
{
    freeBySize_.emplace(c.size, c.offset);
    freeByOffset_.emplace(c.offset, c.size);
}

void
BfcAllocator::eraseFree(const Chunk &c)
{
    freeBySize_.erase({c.size, c.offset});
    freeByOffset_.erase(c.offset);
}

std::optional<MemHandle>
BfcAllocator::allocate(std::uint64_t bytes, Placement placement)
{
    std::uint64_t need = roundUp(bytes);

    // Segregated placement: small requests take the best-fitting chunk and
    // carve from its bottom; large requests take the highest-addressed
    // fitting chunk and carve from its top. Keeping multi-GiB feature maps
    // and gradients at one end of the arena and the small churn (stats,
    // masks, workspaces) at the other sharply reduces the fragmentation
    // that otherwise blocks large contiguous allocations under eviction
    // traffic. (TensorFlow's BFC is single-ended; this is an engineering
    // improvement we document in DESIGN.md.)
    bool large = options_.segregateLarge &&
                 placement == Placement::Auto && need >= kLargeThreshold;

    auto cit = chunks_.end();
    if (large) {
        // Highest-addressed fitting chunk: reverse walk of the offset
        // index stops at the first chunk big enough — same chunk the old
        // full scan of freeBySize_ selected, found in O(1) when the arena
        // top is free (the common case under segregated placement).
        for (auto it = freeByOffset_.rbegin(); it != freeByOffset_.rend();
             ++it) {
            if (it->second >= need) {
                cit = chunks_.find(it->first);
                break;
            }
        }
    } else {
        auto it = freeBySize_.lower_bound({need, 0});
        if (it != freeBySize_.end())
            cit = chunks_.find(it->second);
    }
    if (cit == chunks_.end()) {
        ++stats_.failedAllocs;
        return std::nullopt;
    }

    Chunk &chunk = cit->second;
    eraseFree(chunk);
    chunk.free = false;

    // Split if the remainder is big enough to be useful on its own
    // (TF splits when the leftover exceeds the min allocation size).
    std::uint64_t result_offset = chunk.offset;
    std::uint64_t occupied = chunk.size;
    if (chunk.size - need >= kAlignment) {
        occupied = need;
        ++stats_.splitCount;
        if (large) {
            // Carve from the top: the low remainder stays free.
            Chunk rest{chunk.offset, chunk.size - need, true};
            Chunk taken{chunk.offset + rest.size, need, false};
            chunks_.erase(cit);
            chunks_.emplace(rest.offset, rest);
            insertFree(rest);
            chunks_.emplace(taken.offset, taken);
            result_offset = taken.offset;
        } else {
            Chunk rest{chunk.offset + need, chunk.size - need, true};
            chunk.size = need;
            chunks_.emplace(rest.offset, rest);
            insertFree(rest);
        }
    }

    stats_.bytesInUse += occupied;
    stats_.peakBytesInUse =
        std::max(stats_.peakBytesInUse, stats_.bytesInUse);
    ++stats_.totalAllocs;
    return result_offset;
}

void
BfcAllocator::allocateAt(MemHandle offset, std::uint64_t bytes)
{
    auto it = chunks_.upper_bound(offset);
    if (it == chunks_.begin())
        panic("allocateAt({}, {}): no chunk", offset, bytes);
    --it;
    Chunk chunk = it->second;
    if (!chunk.free || offset + bytes > chunk.offset + chunk.size)
        panic("allocateAt({}, {}): range not inside one free chunk", offset,
              bytes);
    eraseFree(chunk);
    chunks_.erase(it);
    if (offset > chunk.offset) {
        Chunk below{chunk.offset, offset - chunk.offset, true};
        chunks_.emplace(below.offset, below);
        insertFree(below);
        ++stats_.splitCount;
    }
    if (offset + bytes < chunk.offset + chunk.size) {
        Chunk above{offset + bytes, chunk.offset + chunk.size - offset - bytes,
                    true};
        chunks_.emplace(above.offset, above);
        insertFree(above);
        ++stats_.splitCount;
    }
    chunks_.emplace(offset, Chunk{offset, bytes, false});
    stats_.bytesInUse += bytes;
    stats_.peakBytesInUse =
        std::max(stats_.peakBytesInUse, stats_.bytesInUse);
    ++stats_.totalAllocs;
}

void
BfcAllocator::deallocate(MemHandle handle)
{
    auto it = chunks_.find(handle);
    if (it == chunks_.end() || it->second.free)
        panic("deallocate of unknown or already-free handle {}", handle);

    Chunk &chunk = it->second;
    stats_.bytesInUse -= chunk.size;
    ++stats_.totalFrees;
    chunk.free = true;

    // Coalesce with next neighbour.
    auto next = std::next(it);
    if (next != chunks_.end() && next->second.free) {
        eraseFree(next->second);
        chunk.size += next->second.size;
        chunks_.erase(next);
        ++stats_.mergeCount;
    }
    // Coalesce with previous neighbour.
    if (it != chunks_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.free) {
            eraseFree(prev->second);
            prev->second.size += chunk.size;
            chunks_.erase(it);
            insertFree(prev->second);
            ++stats_.mergeCount;
            return;
        }
    }
    insertFree(chunk);
}

bool
BfcAllocator::canAllocate(std::uint64_t bytes) const
{
    std::uint64_t need = roundUp(bytes);
    auto it = freeBySize_.lower_bound({need, 0});
    return it != freeBySize_.end();
}

std::uint64_t
BfcAllocator::allocationSize(MemHandle handle) const
{
    auto it = chunks_.find(handle);
    if (it == chunks_.end() || it->second.free)
        panic("allocationSize of unknown handle {}", handle);
    return it->second.size;
}

void
BfcAllocator::refreshDerivedStats() const
{
    stats_.largestFreeChunk =
        freeBySize_.empty() ? 0 : freeBySize_.rbegin()->first;
    stats_.freeChunkCount = freeBySize_.size();
}

const BfcStats &
BfcAllocator::stats() const
{
    refreshDerivedStats();
    return stats_;
}

std::vector<BfcAllocator::ChunkInfo>
BfcAllocator::snapshot() const
{
    std::vector<ChunkInfo> out;
    out.reserve(chunks_.size());
    for (const auto &[off, c] : chunks_)
        out.push_back(ChunkInfo{c.offset, c.size, c.free});
    return out;
}

void
BfcAllocator::resetPeak()
{
    stats_.peakBytesInUse = stats_.bytesInUse;
}

void
BfcAllocator::checkInvariants() const
{
    std::uint64_t expect_offset = 0;
    std::uint64_t in_use = 0;
    std::size_t free_count = 0;
    bool prev_free = false;
    for (const auto &[off, c] : chunks_) {
        if (off != c.offset || off != expect_offset)
            panic("chunk tiling broken at offset {}", off);
        if (c.size == 0)
            panic("zero-size chunk at offset {}", off);
        if (c.free && prev_free)
            panic("uncoalesced adjacent free chunks at offset {}", off);
        if (c.free) {
            ++free_count;
            if (!freeBySize_.count({c.size, c.offset}))
                panic("free chunk missing from size index at {}", off);
            auto fo = freeByOffset_.find(c.offset);
            if (fo == freeByOffset_.end() || fo->second != c.size)
                panic("free chunk missing from offset index at {}", off);
        } else {
            in_use += c.size;
        }
        prev_free = c.free;
        expect_offset += c.size;
    }
    if (expect_offset != capacity_)
        panic("chunks cover {} of {} capacity", expect_offset, capacity_);
    if (in_use != stats_.bytesInUse)
        panic("bytesInUse accounting drift: {} vs {}", in_use,
              stats_.bytesInUse);
    if (free_count != freeBySize_.size())
        panic("free index size drift: {} vs {}", free_count,
              freeBySize_.size());
    if (free_count != freeByOffset_.size())
        panic("free offset-index size drift: {} vs {}", free_count,
              freeByOffset_.size());
}

} // namespace capu
