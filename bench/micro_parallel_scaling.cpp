// Parallel trial-runner scaling: wall-clock speedup of
// core::run_trials over the serial path as the job count grows,
// on one Figure-4(c)-style data point (Internet topology, Tdown, MRAI 30 s,
// 16 trials). Also re-checks the determinism guarantee: every job count
// must reproduce the serial aggregate bit-for-bit.
//
//   BGPSIM_TRIALS : trials in the data point (default 16)
//
// Speedup is bounded by min(jobs, cores, trials); on an 8-core machine the
// 8-job row should land >= 3x (trial durations vary, so the longest trial
// plus imbalance keeps it below the ideal 8x).
#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "common.hpp"
#include "sim/thread_pool.hpp"

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main() {
  using namespace bgpsim;
  using namespace bgpsim::bench;
  using bgpsim::bench::check;  // not the bgpsim::check namespace

  print_header("micro: parallel scaling",
               "run_trials speedup vs job count");

  const std::size_t n_trials = trials(16);
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kInternet;
  s.topology.size = 29;
  s.topology.topo_seed = 3;
  s.event = core::EventKind::kTdown;
  s.bgp.mrai = sim::SimTime::seconds(30);
  s.seed = 3;

  std::printf("point: %s, MRAI=30s, trials=%zu, hardware threads=%zu\n\n",
              s.label().c_str(), n_trials,
              sim::ThreadPool::default_workers());

  core::TrialSet serial;
  const double t_serial =
      wall_seconds([&] {
        serial = core::run_trials(
            s, core::RunOptions{.trials = n_trials, .jobs = 1});
      });

  core::Table table{{"jobs", "wall (s)", "speedup", "conv mean (s)",
                     "identical to serial"}};
  table.add_row({"serial", core::fmt(t_serial, 2), "1.00",
                 core::fmt(serial.convergence_time_s.mean, 3), "-"});

  double best_speedup = 1.0;
  for (const std::size_t jobs : std::vector<std::size_t>{1, 2, 4, 8}) {
    core::TrialSet set;
    const double t =
        wall_seconds([&] {
          set = core::run_trials(
              s, core::RunOptions{.trials = n_trials, .jobs = jobs});
        });
    const bool identical =
        set.convergence_time_s.mean == serial.convergence_time_s.mean &&
        set.convergence_time_s.stddev == serial.convergence_time_s.stddev &&
        set.looping_duration_s.mean == serial.looping_duration_s.mean &&
        set.ttl_exhaustions.mean == serial.ttl_exhaustions.mean &&
        set.looping_ratio.mean == serial.looping_ratio.mean &&
        set.loops_formed.mean == serial.loops_formed.mean;
    const double speedup = t > 0 ? t_serial / t : 0;
    if (jobs > 1) best_speedup = std::max(best_speedup, speedup);
    table.add_row({std::to_string(jobs), core::fmt(t, 2),
                   core::fmt(speedup, 2),
                   core::fmt(set.convergence_time_s.mean, 3),
                   identical ? "yes" : "NO"});
    if (!identical) {
      std::printf("FATAL: job count %zu changed the aggregate\n", jobs);
      return 1;
    }
  }
  table.print(std::cout);
  maybe_csv(table);

  std::printf("\nchecks:\n");
  check(true, "all job counts reproduced the serial aggregate bit-for-bit");
  const std::size_t cores = sim::ThreadPool::default_workers();
  if (cores >= 8) {
    check(best_speedup >= 3.0, "8-job speedup >= 3x on an 8-core machine");
  } else {
    std::printf("  [SKIP] speedup target needs >= 8 cores (have %zu); "
                "best observed %.2fx\n",
                cores, best_speedup);
  }
  return 0;
}
