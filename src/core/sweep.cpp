#include "core/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "core/env.hpp"
#include "sim/logging.hpp"
#include "sim/thread_pool.hpp"
#include "snap/cache.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim::core {
namespace {

template <typename Get>
metrics::Summary collect(const std::vector<ExperimentOutcome>& runs, Get get) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const auto& r : runs) values.push_back(get(r.metrics));
  return metrics::summarize(values);
}

/// Seed layout shared by the serial and parallel runners: trial i is a pure
/// function of (base, i), never of execution order.
Scenario trial_scenario(const Scenario& base, std::size_t i) {
  Scenario s = base;
  s.seed = base.seed + i;
  if (generated_topology(s.topology.kind)) {
    s.topology.topo_seed = base.topology.topo_seed + i;
  }
  return s;
}

/// Aggregation shared by both runners so summaries are computed by the
/// exact same code path (bit-identical results).
void summarize_trials(TrialSet& set) {
  using M = metrics::RunMetrics;
  set.convergence_time_s =
      collect(set.runs, [](const M& m) { return m.convergence_time_s; });
  set.looping_duration_s =
      collect(set.runs, [](const M& m) { return m.looping_duration_s; });
  set.ttl_exhaustions = collect(
      set.runs, [](const M& m) { return static_cast<double>(m.ttl_exhaustions); });
  set.looping_ratio =
      collect(set.runs, [](const M& m) { return m.looping_ratio; });
  set.loops_formed = collect(
      set.runs, [](const M& m) { return static_cast<double>(m.loops_formed); });
  set.max_loop_duration_s =
      collect(set.runs, [](const M& m) { return m.max_loop_duration_s; });
}

/// A trial may use the prelude cache only when it carries no caller-owned
/// observation or checkpoint hooks: a warm start skips Phase 1 entirely, so
/// a trace recorder or oracle would see a different (shorter) event stream,
/// and caller-set snapshot fields must not be silently repurposed.
bool cacheable(const Scenario& s) {
  return s.trace == nullptr && s.oracle == nullptr &&
         s.warm_start == nullptr && s.save_converged == nullptr &&
         s.snap_roundtrip == SnapRoundtrip::kOff;
}

/// Cache key for one trial's converged prelude: driver tag + everything that
/// shapes Phase 1 (scenario_prelude_hash) + the seed. Scenarios that differ
/// only in post-event knobs (event kind, flap interval, traffic) share the
/// key and fork from one cold run.
std::uint64_t prelude_key(const Scenario& s) {
  snap::Hasher h;
  h.mix(static_cast<std::uint64_t>(snap::DriverKind::kBgp));
  h.mix(scenario_prelude_hash(s));
  h.mix(s.seed);
  return h.value();
}

}  // namespace

// One trial, warm-started from the process-wide PreludeCache when possible.
// Shared by the serial and parallel runners (and the campaign service's
// workers) so all produce bit-identical results whether a trial hits or
// misses the cache.
ExperimentOutcome run_single_trial(const Scenario& base, std::size_t i,
                                   bool use_snap_cache) {
  Scenario s = trial_scenario(base, i);
  auto& cache = snap::PreludeCache::instance();
  if (!use_snap_cache || !cache.enabled() || !cacheable(s)) {
    return run_experiment(s);
  }

  const std::uint64_t key = prelude_key(s);
  if (const std::shared_ptr<const snap::Snapshot> hit = cache.find(key)) {
    s.warm_start = hit.get();
    return run_experiment(s);
  }
  snap::Snapshot converged;
  s.save_converged = &converged;
  ExperimentOutcome out = run_experiment(s);
  cache.insert(key,
               std::make_shared<const snap::Snapshot>(std::move(converged)));
  return out;
}

std::vector<TrialRange> decompose_trials(std::size_t trials,
                                         std::size_t unit_trials) {
  if (unit_trials == 0) unit_trials = 1;
  std::vector<TrialRange> units;
  units.reserve((trials + unit_trials - 1) / unit_trials);
  for (std::size_t begin = 0; begin < trials; begin += unit_trials) {
    units.push_back({begin, std::min(unit_trials, trials - begin)});
  }
  return units;
}

TrialSet assemble_trials(Scenario base, std::vector<ExperimentOutcome> runs) {
  TrialSet set;
  set.scenario = std::move(base);
  set.runs = std::move(runs);
  summarize_trials(set);
  return set;
}

TrialSet run_trials(const Scenario& base, const RunOptions& options) {
  // Effective scenario: RunOptions-attached sinks override the scenario's
  // own (both remain supported; the scenario fields predate RunOptions).
  Scenario s = base;
  if (options.trace != nullptr) s.trace = options.trace;
  if (options.oracle != nullptr) s.oracle = options.oracle;

  const std::size_t trials = options.trials;
  const std::size_t jobs = options.jobs == 0 ? default_jobs() : options.jobs;
  const bool sinks = s.trace != nullptr || s.oracle != nullptr;

  // The trace recorder and the invariant oracle are caller-owned,
  // unsynchronized sinks; honor them by running serially rather than
  // interleaving trials into them. Say so — a silent fallback reads as a
  // parallel run that mysteriously used one core.
  if (jobs > 1 && trials > 1 && sinks) {
    sim::LogLine{sim::LogLevel::kInfo, "core", sim::SimTime::zero()}
        << "run_trials: falling back to serial execution because "
        << (s.trace != nullptr ? "a trace recorder" : "an invariant oracle")
        << " is attached (caller-owned sinks are not synchronized across "
           "worker threads)";
  }

  if (jobs <= 1 || trials <= 1 || sinks) {
    TrialSet set;
    set.scenario = s;
    set.runs.reserve(trials);
    for (std::size_t i = 0; i < trials; ++i) {
      set.runs.push_back(run_single_trial(s, i, options.snap_cache));
    }
    summarize_trials(set);
    return set;
  }

  TrialSet set;
  set.scenario = s;
  set.runs.resize(trials);  // slot per trial: collected in trial order
  std::vector<std::exception_ptr> errors(trials);

  {
    sim::ThreadPool pool{std::min(jobs, trials)};
    for (std::size_t i = 0; i < trials; ++i) {
      pool.submit([&s, &set, &errors, &options, i] {
        try {
          set.runs[i] = run_single_trial(s, i, options.snap_cache);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }

  // Serial semantics: the lowest-index failure is the one reported.
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  summarize_trials(set);
  return set;
}

std::size_t default_jobs() { return env::jobs(); }

}  // namespace bgpsim::core
