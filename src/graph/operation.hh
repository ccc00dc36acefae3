/**
 * @file
 * Operation descriptor: one kernel-level node of the computation graph.
 *
 * The op carries everything the cost model and the policies need:
 *  - `category` for the static baselines (vDNN keys on Conv, OpenAI speed
 *    mode keys on Conv/MatMul);
 *  - `flops` / `memBytes` for the analytic duration model;
 *  - `fastWorkspaceBytes` / `fallbackSlowdown` for the cuDNN-style algorithm
 *    choice under memory pressure;
 *  - `phase` so policies can distinguish forward from backward accesses.
 */

#ifndef CAPU_GRAPH_OPERATION_HH
#define CAPU_GRAPH_OPERATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/tensor.hh"

namespace capu
{

enum class OpCategory
{
    Source,      ///< produces the input batch (not recomputable)
    Conv,        ///< convolution (fwd or bwd) — the expensive CNN kernel
    MatMul,      ///< dense / attention matmul
    Pool,        ///< max/avg pooling
    Elementwise, ///< relu, add, gelu, dropout, scale ...
    Normalize,   ///< batchnorm / layernorm
    Softmax,     ///< softmax (attention or classifier)
    Loss,        ///< loss computation (forward boundary)
    Update,      ///< SGD/Adam weight update
};

enum class Phase
{
    Forward,
    Backward,
    Update,
};

struct Operation
{
    OpId id = kInvalidOp;
    std::string name;
    OpCategory category = OpCategory::Elementwise;
    Phase phase = Phase::Forward;

    /** All tensors read by the kernel (data + params + saved activations). */
    std::vector<TensorId> inputs;
    /** Tensors produced by the kernel. */
    std::vector<TensorId> outputs;

    /** Floating-point work of the kernel. */
    double flops = 0;
    /** Bytes moved through device memory (inputs + outputs, roughly). */
    double memBytes = 0;

    /** Scratch needed by the fast algorithm (0 = no workspace ever). */
    std::uint64_t fastWorkspaceBytes = 0;
    /** Duration multiplier when falling back to the no-workspace algo. */
    double fallbackSlowdown = 1.0;
    /**
     * Compute-time divisor of the fast algorithm (Winograd performs a 3x3
     * convolution with ~2.25x fewer FLOPs than the direct method; the
     * fallback algorithm runs at the plain `flops` count).
     */
    double fastAlgoSpeedup = 1.0;

    /**
     * Whether re-running this op regenerates identical outputs. Source ops
     * (fresh input batch) are not; everything else in these models is.
     */
    bool recomputable = true;

    /**
     * Graph-mode buffer forwarding: outputs[0] may reuse inputs[0]'s
     * buffer when this op is the input's sole remaining consumer (ReLU,
     * add, gradient accumulation). TensorFlow applies the same
     * optimization in graph mode but not eagerly — a key source of the
     * paper's graph-vs-eager max-batch gap (Table 3).
     */
    bool inplaceEligible = false;

    // --- autograd metadata (set on forward ops by the builder) ---

    /** Forward inputs whose gradients must be produced. */
    std::vector<TensorId> gradInputs;
    /** Weights whose gradients must be produced. */
    std::vector<TensorId> gradParams;
    /** Fwd tensors (inputs or outputs) the backward kernels must re-read. */
    std::vector<TensorId> savedForBackward;
    /** Backward FLOPs per produced gradient class, as multiple of `flops`. */
    double bwdFlopsScale = 1.0;
};

} // namespace capu

#endif // CAPU_GRAPH_OPERATION_HH
