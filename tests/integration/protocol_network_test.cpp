// The network assembler every protocol shares (fwd::ProtocolNetwork): a
// network stays where it was built, and a checkpoint of the wrong shape
// ends in snap::FormatError for BGP, DV and LS alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bgp/network.hpp"
#include "dv/network.hpp"
#include "ls/network.hpp"
#include "snap/codec.hpp"
#include "support/paths.hpp"
#include "topo/generators.hpp"

namespace bgpsim {
namespace {

// The transport and queue handlers hold the network's `this`, so a copied
// or moved network would deliver into the object it came from.
template <typename Network>
constexpr bool kPinned = !std::is_copy_constructible_v<Network> &&
                         !std::is_move_constructible_v<Network> &&
                         !std::is_copy_assignable_v<Network> &&
                         !std::is_move_assignable_v<Network>;
static_assert(kPinned<bgp::BgpNetwork>);
static_assert(kPinned<dv::DvNetwork>);
static_assert(kPinned<ls::LsNetwork>);

// Processing is far slower than the 2 ms links, so queues back up while
// the announcement spreads: a checkpoint taken then holds queued payloads.
const net::ProcessingDelay kDelay{sim::SimTime::millis(100),
                                  sim::SimTime::millis(100)};
const sim::SimTime kMidRun = sim::SimTime::millis(250);

bgp::BgpConfig bgp_config() {
  bgp::BgpConfig c;
  c.jitter_lo = 1.0;
  c.jitter_hi = 1.0;
  return c;
}

dv::DvConfig dv_config() {
  dv::DvConfig c;
  c.periodic = sim::SimTime::zero();
  c.triggered_delay_lo = sim::SimTime::millis(1);
  c.triggered_delay_hi = sim::SimTime::millis(1);
  return c;
}

ls::LsConfig ls_config() {
  ls::LsConfig c;
  c.spf_delay_lo = sim::SimTime::millis(100);
  c.spf_delay_hi = sim::SimTime::millis(100);
  return c;
}

/// Build a network with `make(sim, topo, rng)` on a 4-clique, schedule
/// `announce(network)` at 0, and checkpoint it mid-run (queues busy) and
/// converged. Each checkpoint restores whole into a fresh network whose
/// simulator clock is the checkpoint's, and every truncation of it ends in
/// snap::FormatError.
template <typename Make, typename Announce>
void expect_every_truncation_rejected(const Make& make,
                                      const Announce& announce) {
  struct Checkpoint {
    sim::SimTime now;
    std::uint64_t fired;
    std::uint64_t seq;
    std::vector<std::uint8_t> bytes;
  };
  sim::Simulator sim;
  net::Topology topo = topo::make_clique(4);
  auto network = make(sim, topo, sim::Rng{1});
  sim.schedule_at(sim::SimTime::zero(), [&] { announce(network); });
  std::vector<Checkpoint> checkpoints;
  const auto take = [&] {
    snap::Writer w;
    network.save_state(w);
    checkpoints.push_back(
        {sim.now(), sim.events_fired(), sim.event_seq(), w.bytes()});
  };
  sim.run_until(kMidRun);
  ASSERT_TRUE(network.busy());
  take();
  sim.run();
  ASSERT_FALSE(network.busy());
  take();

  for (const Checkpoint& c : checkpoints) {
    const auto restore_fresh = [&](std::span<const std::uint8_t> bytes) {
      sim::Simulator fresh_sim;
      fresh_sim.restore_clock(c.now, c.fired, c.seq);
      auto fresh = make(fresh_sim, topo, sim::Rng{2});
      snap::Reader r{bytes};
      fresh.restore_state(r);
      r.finish();
    };
    restore_fresh(c.bytes);
    for (std::size_t cut = 0; cut < c.bytes.size(); ++cut) {
      EXPECT_THROW(
          restore_fresh(std::span<const std::uint8_t>{c.bytes}.first(cut)),
          snap::FormatError)
          << c.bytes.size() << "-byte checkpoint cut to " << cut;
    }
  }
}

TEST(ProtocolNetworkCodec, RestoreRejectsAnotherPrefixCount) {
  const auto make = [](sim::Simulator& sim, net::Topology& topo,
                       std::uint32_t prefixes) {
    return bgp::BgpNetwork{sim, topo, bgp_config(), kDelay, sim::Rng{1},
                           test::paths(), prefixes};
  };
  for (const auto& [saved, restored] : {std::pair{2u, 1u}, std::pair{1u, 2u}}) {
    sim::Simulator sim;
    net::Topology topo = topo::make_clique(4);
    auto network = make(sim, topo, saved);
    sim.schedule_at(sim::SimTime::zero(), [&] { network.originate(0, 0); });
    sim.run();
    snap::Writer w;
    network.save_state(w);

    sim::Simulator other_sim;
    auto other = make(other_sim, topo, restored);
    snap::Reader r{w.bytes()};
    try {
      other.restore_state(r);
      ADD_FAILURE() << "a " << saved << "-prefix checkpoint restored into a "
                    << restored << "-prefix network";
    } catch (const snap::FormatError& e) {
      EXPECT_EQ(std::string{e.what()},
                "snapshot routes " + std::to_string(saved) +
                    " prefixes; this network routes " +
                    std::to_string(restored));
    }
  }
}

TEST(ProtocolNetworkCodec, RestoreRejectsEveryTruncation) {
  {
    SCOPED_TRACE("bgp");
    expect_every_truncation_rejected(
        [](sim::Simulator& sim, net::Topology& topo, const sim::Rng& rng) {
          return bgp::BgpNetwork{sim, topo, bgp_config(), kDelay, rng,
                                 test::paths(), 2};
        },
        [](bgp::BgpNetwork& n) { n.originate_batch(0, {0, 1}); });
  }
  {
    SCOPED_TRACE("dv");
    expect_every_truncation_rejected(
        [](sim::Simulator& sim, net::Topology& topo, const sim::Rng& rng) {
          return dv::DvNetwork{sim, topo, dv_config(), kDelay, rng};
        },
        [](dv::DvNetwork& n) { n.originate(0, 0); });
  }
  {
    SCOPED_TRACE("ls");
    expect_every_truncation_rejected(
        [](sim::Simulator& sim, net::Topology& topo, const sim::Rng& rng) {
          return ls::LsNetwork{sim, topo, ls_config(), kDelay, rng};
        },
        [](ls::LsNetwork& n) {
          n.start_all();
          n.originate(0, 0);
        });
  }
}

}  // namespace
}  // namespace bgpsim
