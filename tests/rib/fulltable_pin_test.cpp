// The full-table benchmark input, pinned in tier-1: 512 prefixes over four
// spread origins on the 110-node Internet graph (graph seed 1, destination
// 50), Tdown, MRAI 30 s — the scenario bgpsim_bench runs as fulltable-512.
// Trial 0 at seed 1 must keep its trial-set digest, its fired-event count
// and the content hash of its converged prelude snapshot. The snapshot
// hash pins the byte order of every per-(peer, prefix) control-plane plane
// (MRAI timers, Adj-RIB-Out, FIB) and of the path arena section as well as
// the routing outcome, and its size is bounded.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "check/oracle.hpp"
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
  EXPECT_EQ(converged.content_hash(), 0x79d449032ea8b5f8ULL);
  // Each path is a 4-byte ref into the arena section, which writes each
  // distinct path node once: the converged prelude stays under 8 MB.
  EXPECT_LE(converged.size_bytes(), std::size_t{8'000'000});
}

/// Reads every MRAI expiry, so each timer runs as a queued event instead
/// of passing silently when it holds no decision.
class ExpiryCounter final : public check::Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "expiry-counter";
  }
  void on_mrai_expired(net::NodeId, net::NodeId, net::Prefix, bool pending,
                       sim::SimTime) override {
    ++expiries;
    held += pending ? 1 : 0;
  }
  std::uint64_t expiries = 0;
  std::uint64_t held = 0;
};

TEST(FullTablePin, QueuedTimersReproduceTheSilentRun) {
  // The same trial with every expiry observed: nothing the run reports may
  // move, and the oracle counts the same observations either way.
  check::Oracle plain = check::Oracle::standard();
  check::Oracle queued = check::Oracle::standard();
  auto& counter = static_cast<ExpiryCounter&>(
      queued.add(std::make_unique<ExpiryCounter>()));
  ASSERT_FALSE(plain.observes_mrai_expiries());
  ASSERT_TRUE(queued.observes_mrai_expiries());

  ExperimentOutcome outs[2];
  std::uint64_t hashes[2];
  check::Oracle* oracles[2] = {&plain, &queued};
  for (int i = 0; i < 2; ++i) {
    Scenario s = fulltable_512(1);
    snap::Snapshot converged;
    s.save_converged = &converged;
    s.oracle = oracles[i];
    outs[i] = run_experiment(s);
    hashes[i] = converged.content_hash();
    EXPECT_TRUE(oracles[i]->ok()) << oracles[i]->summary();
  }
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i == 0 ? "silent" : "queued");
    EXPECT_EQ(svc::trialset_digest(assemble_trials(fulltable_512(1), {outs[i]})),
              0x1c5dc8ffbe87859dULL);
    EXPECT_EQ(outs[i].events_fired, 2'424'349ULL);
    EXPECT_EQ(hashes[i], 0x79d449032ea8b5f8ULL);
  }
  EXPECT_EQ(plain.observations(), queued.observations());
  // About one expiry in five holds a decision; only those run as events
  // on the silent path.
  EXPECT_GT(counter.expiries, 4 * counter.held);
  EXPECT_GT(counter.held, 0u);
}

}  // namespace
}  // namespace bgpsim::core
