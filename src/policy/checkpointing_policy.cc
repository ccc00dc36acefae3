#include "policy/checkpointing_policy.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace capu
{

namespace
{
/** Activations smaller than this stay resident (not worth replaying). */
constexpr std::uint64_t kMinDropBytes = 1ull << 20;
} // namespace

std::string
CheckpointingPolicy::name() const
{
    return mode_ == Mode::Memory ? "OpenAI-M" : "OpenAI-S";
}

void
CheckpointingPolicy::attach(const Graph &graph,
                            const std::vector<OpId> &schedule,
                            const ExecConfig &config)
{
    (void)config;
    dropSet_.clear();
    dropAfter_.clear();

    std::unordered_map<OpId, std::size_t> pos;
    std::vector<OpId> forward_ops;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        pos[schedule[i]] = i;
        if (graph.op(schedule[i]).phase == Phase::Forward)
            forward_ops.push_back(schedule[i]);
    }

    // Checkpoint predicate over forward ops.
    std::vector<bool> checkpointed_op(graph.numOps(), false);
    if (mode_ == Mode::Speed) {
        for (OpId id : forward_ops) {
            OpCategory c = graph.op(id).category;
            checkpointed_op[id] = c == OpCategory::Conv ||
                                  c == OpCategory::MatMul;
        }
    } else {
        // sqrt(n) evenly spaced along the forward schedule.
        std::size_t n = forward_ops.size();
        std::size_t seg = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(std::sqrt(
                   static_cast<double>(n)))));
        for (std::size_t i = 0; i < n; i += seg)
            checkpointed_op[forward_ops[i]] = true;
        // The stem before the first segment boundary is cheap to keep.
        checkpointed_op[forward_ops.front()] = true;
    }

    // Drop set: forward feature maps with backward consumers, produced by
    // recomputable non-checkpointed ops. Dropout masks carry RNG state in a
    // real framework, so both OpenAI modes keep them (we do too, for
    // parity, even though our replay is deterministic).
    for (const TensorDesc &t : graph.tensors()) {
        if (t.kind != TensorKind::FeatureMap || t.bytes < kMinDropBytes)
            continue;
        if (t.producer == kInvalidOp)
            continue;
        const Operation &prod = graph.op(t.producer);
        if (prod.phase != Phase::Forward || !prod.recomputable)
            continue;
        if (checkpointed_op[t.producer])
            continue;
        if (t.name.find(":mask") != std::string::npos)
            continue;
        bool backward_use = false;
        OpId last_fwd = t.producer;
        std::size_t last_pos = pos[t.producer];
        for (OpId c : graph.consumers(t.id)) {
            if (graph.op(c).phase == Phase::Forward) {
                if (pos[c] > last_pos) {
                    last_fwd = c;
                    last_pos = pos[c];
                }
            } else {
                backward_use = true;
            }
        }
        if (!backward_use)
            continue;
        dropSet_.push_back(t.id);
        dropAfter_[last_fwd].push_back(t.id);
    }
}

void
CheckpointingPolicy::onAccess(ExecContext &ctx, const AccessEvent &event)
{
    if (observer_ && ctx.iteration() == 0)
        observer_(ctx, event);
}

void
CheckpointingPolicy::afterOp(ExecContext &ctx, OpId op, Tick op_end)
{
    (void)op_end;
    auto it = dropAfter_.find(op);
    if (it == dropAfter_.end())
        return;
    for (TensorId t : it->second) {
        ctx.trace(obs::Label::CkptDrop, t);
        ctx.obs().metrics.add(obs::Metric::CkptDrops);
        ctx.evictDrop(t);
    }
}

bool
CheckpointingPolicy::onAllocFailure(ExecContext &ctx, std::uint64_t bytes)
{
    // Drop-set members can be resident outside their scheduled window:
    // collective recomputation keeps replayed tensors alive while memory
    // lasts. Under pressure, re-drop them (they can always be replayed).
    (void)bytes;
    bool any = false;
    for (TensorId t : dropSet_) {
        if (ctx.canAllocateNow(bytes))
            break;
        if (ctx.status(t) != TensorStatus::In || ctx.isPinned(t))
            continue;
        ctx.evictDrop(t);
        any = true;
    }
    return any;
}

void
CheckpointingPolicy::endIteration(ExecContext &ctx,
                                  const IterationStats &stats)
{
    (void)stats;
    if (audit_ && ctx.iteration() == 0)
        audit_(*this, ctx);
}

std::unique_ptr<MemoryPolicy>
makeCheckpointingPolicy(CheckpointingPolicy::Mode mode)
{
    return std::make_unique<CheckpointingPolicy>(mode);
}

} // namespace capu
