// Options for the trial runners — the one knobs struct consumed by
// core::run_trials, the svc campaign coordinator, and the benches.
//
// Environment defaults (core/env.hpp registry): a field left at its
// neutral value resolves against the corresponding knob at run time —
// jobs == 0 resolves to env::jobs(), and snap_cache is additionally gated
// by BGPSIM_SNAP_CACHE — so the environment configures every runner
// without each call site re-reading it, and an explicit field always wins
// in the off direction. The engine takes no switches from here: the
// scheduler, AS-path interning and the data-plane hop store are fixed.
#pragma once

#include <cstddef>

namespace bgpsim::metrics {
class TraceRecorder;
}
namespace bgpsim::check {
class Oracle;
}

namespace bgpsim::core {

struct RunOptions {
  /// Independent repetitions; trial i uses seed base.seed + i (and an
  /// advanced topo_seed on Internet topologies).
  std::size_t trials = 1;

  /// Worker threads. 0 = env::jobs() (BGPSIM_JOBS, else all cores);
  /// 1 = serial. Results are bit-identical at any job count. Runs with a
  /// trace or oracle attached degrade to serial (caller-owned sinks are
  /// not synchronized) with a logged notice.
  std::size_t jobs = 0;

  /// Consult the process-wide snap::PreludeCache for converged-prelude
  /// warm starts (hits and misses are bit-identical by construction).
  /// false forces every trial to run cold; true still requires the cache
  /// to be enabled (BGPSIM_SNAP_CACHE > 0).
  bool snap_cache = true;

  /// Caller-owned route-change trace sink, applied to every trial (forces
  /// serial execution and bypasses the prelude cache). Overrides
  /// Scenario::trace when non-null.
  metrics::TraceRecorder* trace = nullptr;

  /// Caller-owned invariant oracle, applied to every trial (forces serial
  /// execution and bypasses the prelude cache). Overrides Scenario::oracle
  /// when non-null.
  check::Oracle* oracle = nullptr;
};

}  // namespace bgpsim::core
