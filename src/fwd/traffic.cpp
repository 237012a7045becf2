#include "fwd/traffic.hpp"

namespace bgpsim::fwd {

void TrafficGenerator::start(const std::vector<net::NodeId>& sources,
                             sim::SimTime start) {
  std::vector<DataPlane::SourceStart> starts;
  starts.reserve(sources.size());
  for (net::NodeId src : sources) {
    sim::SimTime first = start;
    if (config_.stagger) {
      first += rng_.uniform_time(sim::SimTime::zero(), config_.interval);
    }
    starts.push_back(DataPlane::SourceStart{.at = first, .node = src});
  }
  plane_.start_sources(plan(), starts);
}

}  // namespace bgpsim::fwd
