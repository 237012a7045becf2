// figure1_walkthrough: replays the paper's Figure 1 scenario with a live
// protocol event trace, so you can watch the transient 5<->6 loop form and
// resolve.
//
//   $ ./build/examples/figure1_walkthrough
//
// Topology (Figure 1): destination behind node 0; node 4 directly attached;
// 5 and 6 hang off 4 and each other; 6 also has the long backup via 3-2-1.
// The event: link [4 0] fails.
#include <cstdio>
#include <optional>

#include "bgp/network.hpp"
#include "metrics/loop_detector.hpp"
#include "topo/generators.hpp"

int main() {
  using namespace bgpsim;
  constexpr net::Prefix kP = 0;

  net::Topology topo{7};
  topo.add_link(0, 1);
  topo.add_link(1, 2);
  topo.add_link(2, 3);
  topo.add_link(3, 6);
  topo.add_link(0, 4);
  topo.add_link(4, 5);
  topo.add_link(4, 6);
  topo.add_link(5, 6);

  sim::Simulator simulator;
  bgp::BgpConfig config;  // MRAI 30 s with jitter, as in the study
  bgp::PathArena paths;
  bgp::BgpNetwork network{simulator, topo, config,
                          net::ProcessingDelay{},  // U[0.1 s, 0.5 s]
                          sim::Rng{7}, paths, 1};

  metrics::LoopDetector detector{topo.node_count()};
  metrics::LoopDetector::attach(simulator, network.fibs(), {&detector, 1});

  // Narrate every best-path change and every loop event.
  network.set_hooks(bgp::Speaker::Hooks{
      .on_update_sent = nullptr,
      .on_best_changed =
          [&](net::NodeId node, net::Prefix,
              const std::optional<bgp::AsPath>& best) {
            std::printf("%9.3fs  node %u best path -> %s\n",
                        simulator.now().as_seconds(), node,
                        best ? best->to_string().c_str() : "(unreachable)");
            for (const auto& loop : detector.active_loops()) {
              std::printf("%9.3fs      ** forwarding loop active: {",
                          simulator.now().as_seconds());
              for (std::size_t i = 0; i < loop.size(); ++i) {
                std::printf("%s%u", i ? " " : "", loop[i]);
              }
              std::printf("}\n");
            }
          },
  });

  std::printf("== initial convergence (Figure 1(a)) ==\n");
  simulator.schedule_at(sim::SimTime::zero(),
                        [&] { network.originate(0, kP); });
  simulator.run();

  std::printf("\nconverged state:\n");
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    const bgp::AsPath* loc = network.speaker(n).best_path(kP);
    std::printf("  node %u: %s\n", n,
                loc ? loc->to_string().c_str() : "(unreachable)");
  }

  std::printf("\n== link [4 0] fails (Figure 1(b)) ==\n");
  const auto link40 = topo.link_between(4, 0);
  simulator.schedule_at(simulator.now() + sim::SimTime::seconds(5), [&] {
    std::printf("%9.3fs  !! link [4 0] fails\n", simulator.now().as_seconds());
    network.inject_link_failure(*link40);
  });
  simulator.run();
  detector.finalize(simulator.now());

  std::printf("\n== resolution (Figure 1(c)) ==\n");
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    const bgp::AsPath* loc = network.speaker(n).best_path(kP);
    std::printf("  node %u: %s\n", n,
                loc ? loc->to_string().c_str() : "(unreachable)");
  }

  std::printf("\ntransient loops observed after the failure:\n");
  for (const auto& r : detector.records()) {
    std::printf("  {");
    for (std::size_t i = 0; i < r.members.size(); ++i) {
      std::printf("%s%u", i ? " " : "", r.members[i]);
    }
    std::printf("}  formed %.3fs, lasted %.3fs\n", r.formed_at.as_seconds(),
                r.duration_seconds(simulator.now()));
  }
  if (detector.records().empty()) {
    std::printf("  (none this run — jitter-dependent; try another seed)\n");
  }
  return 0;
}
