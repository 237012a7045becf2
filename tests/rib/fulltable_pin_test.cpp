// The full-table benchmark input, pinned in tier-1: 512 prefixes over four
// spread origins on the 110-node Internet graph (graph seed 1, destination
// 50), Tdown, MRAI 30 s — the scenario bgpsim_bench runs as fulltable-512.
// Trial 0 at seed 1 must keep its trial-set digest, its fired-event count
// and the content hash of its converged prelude snapshot. The snapshot
// hash pins the byte order of every per-(peer, prefix) control-plane plane
// (MRAI timers, Adj-RIB-Out, FIB) as well as the routing outcome.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "snap/snapshot.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::core {
namespace {

Scenario fulltable_512(std::uint64_t seed) {
  Scenario s;
  s.topology.kind = TopologyKind::kInternet;
  s.topology.size = 110;
  s.topology.topo_seed = 1;
  s.event = EventKind::kTdown;
  s.bgp.mrai = sim::SimTime::seconds(30);
  s.seed = seed;
  s.destination = 50;
  s.prefixes = 512;
  s.origins = {1, 27, 55, 82};
  return s;
}

TEST(FullTablePin, Seed1TrialZeroIsBitStable) {
  Scenario s = fulltable_512(1);
  snap::Snapshot converged;
  s.save_converged = &converged;
  const ExperimentOutcome out = run_experiment(s);
  ASSERT_FALSE(converged.empty());

  EXPECT_EQ(svc::trialset_digest(assemble_trials(fulltable_512(1), {out})),
            0x1c5dc8ffbe87859dULL);
  EXPECT_EQ(out.events_fired, 2'424'349ULL);
  EXPECT_EQ(converged.content_hash(), 0x520288b3aa1de158ULL);
}

}  // namespace
}  // namespace bgpsim::core
