#include "obs/obs.hh"

namespace capu::obs
{

const char *
obsLevelName(ObsLevel level)
{
    switch (level) {
      case ObsLevel::Off: return "off";
      case ObsLevel::Metrics: return "metrics";
      case ObsLevel::Full: return "full";
    }
    return "?";
}

std::optional<ObsLevel>
obsLevelFromString(std::string_view name)
{
    if (name == "off")
        return ObsLevel::Off;
    if (name == "metrics")
        return ObsLevel::Metrics;
    if (name == "full")
        return ObsLevel::Full;
    return std::nullopt;
}

void
Obs::configure(ObsLevel level, std::size_t ring_capacity)
{
    level_ = level;
    tracer.setCapacity(ring_capacity);
    tracer.setEnabled(level == ObsLevel::Full);
    metrics.setEnabled(level != ObsLevel::Off);
}

} // namespace capu::obs
