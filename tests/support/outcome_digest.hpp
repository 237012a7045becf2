// A hash of the outcome fields a test compares between two runs of one
// scenario (cold vs warm start, probed vs unprobed). It is only ever
// compared within a test, never pinned.
#pragma once

#include <bit>
#include <cstdint>

#include "core/experiment.hpp"
#include "snap/codec.hpp"

namespace bgpsim::test {

inline std::uint64_t outcome_digest(const core::ExperimentOutcome& out) {
  snap::Hasher h;
  h.mix(out.events_fired);
  h.mix(out.destination);
  h.mix(std::bit_cast<std::uint64_t>(out.initial_convergence_s));
  const metrics::RunMetrics& m = out.metrics;
  h.mix(std::bit_cast<std::uint64_t>(m.convergence_time_s));
  h.mix(std::bit_cast<std::uint64_t>(m.looping_duration_s));
  h.mix(m.ttl_exhaustions);
  h.mix(m.loops_formed);
  h.mix(std::bit_cast<std::uint64_t>(m.looping_ratio));
  h.mix(std::bit_cast<std::uint64_t>(m.max_loop_duration_s));
  h.mix(m.updates_sent_total);
  h.mix(m.packets_sent_total);
  h.mix(m.packets_delivered);
  h.mix(m.packets_no_route);
  return h.value();
}

}  // namespace bgpsim::test
