#include "faults/fault_engine.hh"

#include <algorithm>

#include "support/logging.hh"

namespace capu::faults
{

FaultEngine::FaultEngine(FaultSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed), enabled_(spec_.enabled()),
      // Seed 0 is a legal user choice; mix it so SplitMix64 never starts
      // from the all-zero state.
      rng_(hashCombine(seed, 0xc4b0c4a05ull))
{
}

double
FaultEngine::pcieFactor(Tick at) const
{
    double factor = 1.0;
    for (const auto &ep : spec_.pcie) {
        if (at >= ep.begin && at < ep.end)
            factor = std::min(factor, ep.factor);
    }
    // parsePcie enforces (0, 1]; keep a floor anyway so a hand-built spec
    // cannot divide transfer time by ~zero.
    return std::max(factor, 0.01);
}

Tick
FaultEngine::jitterKernel(Tick nominal)
{
    if (spec_.kernelJitter <= 0.0)
        return nominal;
    double f = rng_.uniformReal(1.0 - spec_.kernelJitter,
                                1.0 + spec_.kernelJitter);
    ++stats_.jitteredKernels;
    auto jittered =
        static_cast<Tick>(static_cast<double>(nominal) * f + 0.5);
    return std::max<Tick>(jittered, 1);
}

bool
FaultEngine::hostTransientFail()
{
    if (spec_.hostFailProb <= 0.0)
        return false;
    return rng_.chance(spec_.hostFailProb);
}

bool
FaultEngine::swapAttemptFails()
{
    if (spec_.swapFailProb <= 0.0)
        return false;
    return rng_.chance(spec_.swapFailProb);
}

Tick
FaultEngine::retryBackoff(int attempt) const
{
    int shift = std::min(attempt, 20);
    return spec_.swapBackoffBase << shift;
}

void
FaultEngine::attachTracer(obs::Tracer *tracer)
{
    tracer_ = tracer;
    if (tracer_) {
        tracer_->setTrackName(obs::kTrackFault, "faults");
        tracer_->setTrackName(obs::kTrackRecovery, "recovery");
    }
}

void
FaultEngine::note(obs::Label label, Tick ts, std::int64_t tensor,
                  std::uint64_t bytes)
{
    if (tracer_)
        tracer_->emit(
            {.label = label, .ts = ts, .tensor = tensor, .bytes = bytes});
}

} // namespace capu::faults
