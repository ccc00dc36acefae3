#include "memory/deferred_free.hh"

namespace capu
{

void
DeferredFreeQueue::post(Tick when, MemHandle handle)
{
    heap_.push(Entry{when, nextSeq_++, handle});
    pendingHandles_.insert(handle);
}

void
DeferredFreeQueue::applyUpTo(Tick now, BfcAllocator &alloc)
{
    while (!heap_.empty() && heap_.top().when <= now) {
        alloc.deallocate(heap_.top().handle);
        auto it = pendingHandles_.find(heap_.top().handle);
        if (it != pendingHandles_.end())
            pendingHandles_.erase(it);
        heap_.pop();
    }
}

std::optional<Tick>
DeferredFreeQueue::nextMaturity() const
{
    if (heap_.empty())
        return std::nullopt;
    return heap_.top().when;
}

bool
DeferredFreeQueue::isPending(MemHandle handle) const
{
    return pendingHandles_.count(handle) > 0;
}

void
DeferredFreeQueue::shiftPending(Tick delta)
{
    if (delta == 0 || heap_.empty())
        return;
    std::vector<Entry> entries;
    entries.reserve(heap_.size());
    while (!heap_.empty()) {
        entries.push_back(heap_.top());
        heap_.pop();
    }
    for (Entry &e : entries) {
        e.when += delta;
        heap_.push(e);
    }
}

std::vector<std::pair<Tick, MemHandle>>
DeferredFreeQueue::snapshotPending() const
{
    auto copy = heap_;
    std::vector<std::pair<Tick, MemHandle>> out;
    out.reserve(copy.size());
    while (!copy.empty()) {
        out.emplace_back(copy.top().when, copy.top().handle);
        copy.pop();
    }
    return out;
}

} // namespace capu
