// Snapshot warm-start: wall-clock benefit of the prelude cache
// (snap::PreludeCache) on sweeps that share a converged prelude.
//
// Part 1 — multi-event sweep. Tdown, Tlong, and Flap on the same clique,
// config, and seed share their Phase-1 prelude: the converged pre-event
// state is bit-identical across the three events. Cold pass: cache
// disabled, every trial pays cold convergence. Warm pass: cache enabled,
// the first trial per seed deposits its converged checkpoint and every
// other event's trial forks from it. The speedup here is modest: Tdown
// path hunting dominates the sweep, and the cache cannot touch that.
//
// Part 2 — traffic-load sweep under Tlong, the regime the cache is for:
// reconvergence after a link failure is fast, so cold convergence of a
// large clique IS the bulk of each run, and every load level reuses one
// prelude. This is where the headline speedup comes from.
//
// Part 3 — what the capture itself costs, on the fulltable-512 shape
// (512 prefixes over four origins on the 110-node Internet graph, the
// bgpsim_bench workload of that name), where a cold trial pays for a
// capture whether or not anything forks from it. Each rep runs trial 0
// cold without a capture and cold with one, alternating; the part prints
// the median difference and the capture's size.
//
// Warm trials must reproduce the cold metrics bit-for-bit in every part —
// the cache is a pure wall-clock optimization.
//
//   BGPSIM_TRIALS : trials per sweep point, and part 3's reps (default 3)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "snap/cache.hpp"
#include "snap/snapshot.hpp"
#include "svc/protocol.hpp"

namespace {

using namespace bgpsim;

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

struct SweepPoint {
  std::string label;
  core::Scenario scenario;
};

struct SweepResult {
  double t_cold = 0;
  double t_warm = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  bool identical = true;
  [[nodiscard]] double speedup() const {
    return t_warm > 0 ? t_cold / t_warm : 0;
  }
};

/// Run the sweep serially twice — cache disabled, then enabled — and
/// compare every point's aggregate and per-trial event counts.
SweepResult run_cold_vs_warm(const std::vector<SweepPoint>& points,
                             std::size_t n_trials, core::Table& table) {
  const auto sweep = [&] {
    std::vector<core::TrialSet> sets;
    sets.reserve(points.size());
    for (const auto& p : points) {
      sets.push_back(core::run_trials(
          p.scenario, core::RunOptions{.trials = n_trials, .jobs = 1}));
    }
    return sets;
  };

  auto& cache = snap::PreludeCache::instance();
  SweepResult result;

  cache.set_capacity(0);  // disabled: every trial pays cold convergence
  std::vector<core::TrialSet> cold;
  result.t_cold = wall_seconds([&] { cold = sweep(); });

  cache.set_capacity(snap::PreludeCache::kDefaultCapacity);
  cache.clear();
  cache.reset_stats();
  std::vector<core::TrialSet> warm;
  result.t_warm = wall_seconds([&] { warm = sweep(); });
  result.hits = cache.hits();
  result.misses = cache.misses();

  for (std::size_t p = 0; p < points.size(); ++p) {
    bool same =
        cold[p].convergence_time_s.mean == warm[p].convergence_time_s.mean &&
        cold[p].convergence_time_s.stddev ==
            warm[p].convergence_time_s.stddev &&
        cold[p].looping_duration_s.mean == warm[p].looping_duration_s.mean &&
        cold[p].ttl_exhaustions.mean == warm[p].ttl_exhaustions.mean &&
        cold[p].looping_ratio.mean == warm[p].looping_ratio.mean &&
        cold[p].loops_formed.mean == warm[p].loops_formed.mean;
    for (std::size_t i = 0; same && i < n_trials; ++i) {
      same = cold[p].runs[i].events_fired == warm[p].runs[i].events_fired;
    }
    result.identical &= same;
    table.add_row({points[p].label,
                   core::fmt(cold[p].convergence_time_s.mean, 3),
                   core::fmt(warm[p].convergence_time_s.mean, 3),
                   same ? "yes" : "NO"});
  }
  return result;
}

core::Scenario fulltable_512() {
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kInternet;
  s.topology.size = 110;
  s.topology.topo_seed = 1;
  s.event = core::EventKind::kTdown;
  s.bgp.mrai = sim::SimTime::seconds(30);
  s.seed = 1;
  s.destination = 50;
  s.prefixes = 512;
  s.origins = {1, 27, 55, 82};
  return s;
}

struct CaptureCost {
  double median_s = 0;  // cold with a capture minus cold without
  std::size_t bytes = 0;
  bool identical = true;  // a warm trial from the capture matches cold
};

/// `reps` alternating pairs of trial 0 of fulltable_512(), cold without
/// and with a capture, then one warm trial from the capture.
CaptureCost measure_capture(std::size_t reps) {
  const core::Scenario s = fulltable_512();
  const auto digest = [&s](const core::ExperimentOutcome& out) {
    return svc::trialset_digest(core::assemble_trials(s, {out}));
  };
  CaptureCost cost;
  std::vector<double> extra;
  snap::Snapshot converged;
  core::ExperimentOutcome cold;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double plain = wall_seconds([&] { cold = core::run_experiment(s); });
    core::Scenario capturing = s;
    capturing.save_converged = &converged;
    core::ExperimentOutcome captured;
    const double with_capture =
        wall_seconds([&] { captured = core::run_experiment(capturing); });
    extra.push_back(with_capture - plain);
    cost.identical &= digest(captured) == digest(cold);
  }
  std::sort(extra.begin(), extra.end());
  const std::size_t mid = extra.size() / 2;
  cost.median_s = extra.size() % 2 == 1
                      ? extra[mid]
                      : (extra[mid - 1] + extra[mid]) / 2;
  cost.bytes = converged.size_bytes();

  core::Scenario warm = s;
  warm.warm_start = &converged;
  cost.identical &= digest(core::run_experiment(warm)) == digest(cold);
  return cost;
}

void print_result(const SweepResult& r) {
  std::printf("cold %.3f s, warm %.3f s, speedup %.2fx "
              "(cache: %llu hit(s), %llu miss(es))\n",
              r.t_cold, r.t_warm, r.speedup(),
              static_cast<unsigned long long>(r.hits),
              static_cast<unsigned long long>(r.misses));
}

}  // namespace

int main() {
  using namespace bgpsim::bench;
  using bgpsim::bench::check;  // not the bgpsim::check namespace

  print_header("micro: snapshot warm-start",
               "prelude-cache speedup on shared-prelude sweeps");

  const std::size_t n_trials = trials(3);

  // ---- Part 1: the paper's event grid on one clique ---------------------
  const auto clique = [](std::size_t size, core::EventKind event) {
    core::Scenario s;
    s.topology.kind = core::TopologyKind::kClique;
    s.topology.size = size;
    s.topology.topo_seed = 5;
    s.event = event;
    s.bgp.mrai = sim::SimTime::seconds(30);
    s.seed = 5;
    return s;
  };

  std::vector<SweepPoint> events;
  events.push_back({"Tdown", clique(13, core::EventKind::kTdown)});
  events.push_back({"Tlong", clique(13, core::EventKind::kTlong)});
  events.push_back({"Flap", clique(13, core::EventKind::kFlap)});

  std::printf("part 1: Clique-13 x {Tdown, Tlong, Flap}, MRAI=30s, "
              "trials=%zu per event\n\n",
              n_trials);
  core::Table event_table{
      {"event", "cold conv (s)", "warm conv (s)", "identical to cold"}};
  const SweepResult event_result =
      run_cold_vs_warm(events, n_trials, event_table);
  event_table.print(std::cout);
  print_result(event_result);
  maybe_csv(event_table);

  // ---- Part 2: traffic-load sweep where the prelude dominates -----------
  std::vector<SweepPoint> loads;
  for (const double pps : {5.0, 10.0, 20.0, 40.0}) {
    core::Scenario s = clique(60, core::EventKind::kTlong);
    s.traffic.interval = sim::SimTime::seconds(1.0 / pps);
    loads.push_back({core::fmt(pps, 0) + " pkt/s", s});
  }

  std::printf("\npart 2: Clique-60 Tlong x {5, 10, 20, 40} pkt/s, "
              "trials=%zu per load\n\n",
              n_trials);
  core::Table load_table{
      {"load", "cold conv (s)", "warm conv (s)", "identical to cold"}};
  const SweepResult load_result = run_cold_vs_warm(loads, n_trials, load_table);
  load_table.print(std::cout);
  print_result(load_result);
  maybe_csv(load_table);

  // ---- Part 3: the capture's own cost on the fulltable-512 shape --------
  const std::size_t reps = std::max<std::size_t>(n_trials, 1);
  std::printf("\npart 3: fulltable-512 trial 0 cold, with and without the "
              "prelude capture, %zu alternating rep(s)\n\n",
              reps);
  const CaptureCost capture = measure_capture(reps);
  std::printf("capture: median %.2f ms per cold trial, %zu bytes\n",
              capture.median_s * 1e3, capture.bytes);

  std::printf("\nchecks:\n");
  if (!event_result.identical || !load_result.identical ||
      !capture.identical) {
    std::printf("FATAL: warm-start changed a trial's outcome\n");
    return 1;
  }
  check(true, "warm-start trials reproduce cold metrics bit-for-bit");
  check(event_result.hits == 2 * n_trials,
        "part 1: every trial of the second and third event hit the cache");
  check(load_result.hits == 3 * n_trials,
        "part 2: every trial past the first load level hit the cache");
  check(load_result.speedup() > 1.0,
        "part 2: warm sweep beat the cold sweep (speedup > 1x)");
  return 0;
}
