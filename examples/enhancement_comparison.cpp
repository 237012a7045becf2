// enhancement_comparison: runs the same scenario under all five protocol
// variants side by side — the paper's §5 comparison in one command.
//
//   $ ./build/examples/enhancement_comparison [internet_size] [tdown|tlong]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/env.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"

int main(int argc, char** argv) {
  using namespace bgpsim;

  const std::size_t size = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 48;
  const bool tlong = argc > 2 && std::strcmp(argv[2], "tlong") == 0;
  const std::size_t trials = core::env::trials(2);

  core::Scenario base;
  base.topology.kind = core::TopologyKind::kInternet;
  base.topology.size = size;
  base.topology.topo_seed = 5;
  base.event = tlong ? core::EventKind::kTlong : core::EventKind::kTdown;
  base.seed = 5;

  std::printf("comparing enhancements on Internet-%zu %s (%zu trials each)\n\n",
              size, tlong ? "Tlong" : "Tdown", trials);

  core::Table table{{"protocol", "convergence (s)", "looping duration (s)",
                     "TTL exhaustions", "looping ratio", "updates sent"}};
  for (const auto e : bgp::kAllEnhancements) {
    core::Scenario s = base;
    s.bgp = s.bgp.with(e);
    const auto set =
        core::run_trials(s, core::RunOptions{.trials = trials, .jobs = 1});
    double updates = 0;
    for (const auto& r : set.runs) {
      updates += static_cast<double>(r.metrics.updates_sent);
    }
    table.add_row({to_string(e), metrics::mean_pm(set.convergence_time_s),
                   metrics::mean_pm(set.looping_duration_s),
                   core::fmt(set.ttl_exhaustions.mean, 0),
                   core::fmt_pct(set.looping_ratio.mean, 1),
                   core::fmt(updates / static_cast<double>(set.runs.size()),
                             0)});
  }
  table.print(std::cout);

  std::printf(
      "\nreading guide (paper §5): Assertion and Ghost Flushing should cut\n"
      "both convergence and looping; SSLD helps modestly; WRATE is the\n"
      "mixed bag (it trades fewer messages for stale ghost state).\n");
  return 0;
}
