// run_scenario: a small CLI over the experiment harness.
//
//   $ run_scenario --topo clique|bclique|chain|ring|internet --size N
//                  --event tdown|tlong|tup|flap
//                  --proto bgp|ssld|wrate|assertion|ghost
//                  --mrai SECONDS --seed S [--trials K] [--jobs J] [--policy]
//                  [--trace FILE.jsonl] [--save-state FILE]
//                  [--load-state FILE] [--verbose]
//
// Prints the paper's metrics for each trial plus the aggregate. Trials run
// across --jobs worker threads (default: BGPSIM_JOBS, else all cores) with
// results identical to a serial run. With --trace, writes the route-change
// trace as JSON lines (forces serial execution: one shared trace sink).
//
// --save-state writes the converged pre-event checkpoint of the run to
// FILE; --load-state warm-starts from such a checkpoint, skipping cold
// convergence (the scenario flags must reproduce the saved run's prelude —
// mismatches are rejected with a precise error). Both force trials=1: a
// state file captures exactly one run.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "cli.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "metrics/stats.hpp"
#include "metrics/trace.hpp"
#include "sim/logging.hpp"
#include "snap/snapshot.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s %s [--trials K] [--jobs J] [--trace FILE] "
               "[--save-state FILE] [--load-state FILE] [--verbose]\n",
               argv0, bgpsim::cli::kScenarioUsage);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgpsim;

  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = 10;
  std::size_t trials = 1;
  std::size_t jobs = 0;  // 0: BGPSIM_JOBS env var, else hardware_concurrency
  std::string trace_path;
  std::string save_state_path;
  std::string load_state_path;

  cli::Args args{argc, argv, usage};
  while (args.next()) {
    if (cli::apply_scenario_flag(args, s)) continue;
    const std::string& arg = args.arg();
    if (arg == "--trials") {
      trials = args.value_size();
    } else if (arg == "--jobs") {
      jobs = args.value_size();
    } else if (arg == "--trace") {
      trace_path = args.value();
    } else if (arg == "--save-state") {
      save_state_path = args.value();
    } else if (arg == "--load-state") {
      load_state_path = args.value();
    } else if (arg == "--verbose") {
      sim::Log::set_level(sim::LogLevel::kDebug);
    } else {
      args.fail();
    }
  }

  // A state file describes exactly one run; fan-out would either race on
  // the save target or warm-start every trial from trial 0's state.
  if ((!save_state_path.empty() || !load_state_path.empty()) && trials != 1) {
    std::fprintf(stderr,
                 "run_scenario: --save-state/--load-state force trials=1 "
                 "(was %zu)\n",
                 trials);
    trials = 1;
  }

  snap::Snapshot loaded;
  if (!load_state_path.empty()) {
    try {
      loaded = snap::Snapshot::load_file(load_state_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run_scenario: cannot load %s: %s\n",
                   load_state_path.c_str(), e.what());
      return 1;
    }
    s.warm_start = &loaded;
    std::printf("state: warm-starting from %s (%zu bytes, t=%.1fs)\n",
                load_state_path.c_str(), loaded.size_bytes(),
                loaded.meta().sim_time.as_seconds());
  }
  snap::Snapshot saved;
  if (!save_state_path.empty()) s.save_converged = &saved;

  std::printf("scenario: %s, MRAI=%.0fs, trials=%zu\n", s.label().c_str(),
              s.bgp.mrai.as_seconds(), trials);

  metrics::TraceRecorder trace;
  if (!trace_path.empty()) s.trace = &trace;

  core::TrialSet set;
  try {
    set = core::run_trials(s, core::RunOptions{.trials = trials, .jobs = jobs});
  } catch (const std::exception& e) {
    // A stale or mismatched --load-state file (the snapshot's meta must
    // match the flags) or a scenario that does not converge within
    // max_sim_time is a failed run, not a crash.
    std::fprintf(stderr, "run_scenario: %s\n", e.what());
    return 1;
  }

  if (!save_state_path.empty()) {
    saved.save_file(save_state_path);
    std::printf("state: converged checkpoint (%zu bytes, t=%.1fs) -> %s\n",
                saved.size_bytes(), saved.meta().sim_time.as_seconds(),
                save_state_path.c_str());
  }

  if (!trace_path.empty()) {
    std::ofstream out{trace_path};
    trace.write_jsonl(out);
    std::printf("trace: %zu events across %zu trials -> %s\n", trace.size(),
                trials, trace_path.c_str());
  }
  for (std::size_t i = 0; i < set.runs.size(); ++i) {
    const auto& m = set.runs[i].metrics;
    std::printf(
        "  trial %zu: dest=%u conv=%.1fs loopdur=%.1fs exh=%llu ratio=%.1f%% "
        "loops=%llu upd=%llu wd=%llu\n",
        i, set.runs[i].destination, m.convergence_time_s,
        m.looping_duration_s,
        static_cast<unsigned long long>(m.ttl_exhaustions),
        m.looping_ratio * 100.0,
        static_cast<unsigned long long>(m.loops_formed),
        static_cast<unsigned long long>(m.updates_sent),
        static_cast<unsigned long long>(m.bgp.withdrawals_sent));
    for (std::size_t p = 0; p < m.per_prefix.size(); ++p) {
      const auto& lane = m.per_prefix[p];
      std::printf(
          "    prefix %zu: loops=%llu maxloop=%.1fs exh=%llu sent=%llu "
          "delivered=%llu\n",
          p, static_cast<unsigned long long>(lane.loops_formed),
          lane.max_loop_duration_s,
          static_cast<unsigned long long>(lane.ttl_exhaustions),
          static_cast<unsigned long long>(lane.packets_sent),
          static_cast<unsigned long long>(lane.packets_delivered));
    }
  }
  std::printf("aggregate: conv=%s s, loopdur=%s s, ratio=%.1f ±%.1f %%\n",
              metrics::mean_pm(set.convergence_time_s).c_str(),
              metrics::mean_pm(set.looping_duration_s).c_str(),
              set.looping_ratio.mean * 100.0, set.looping_ratio.stddev * 100.0);
  return 0;
}
