// Options for the trial runners — the one knobs struct consumed by
// core::run_trials, the svc campaign coordinator, and the benches.
//
// This replaces the accreted positional parameter lists
// (run_trials(base, trials) / run_trials_parallel(base, trials, jobs) plus
// per-call-site env lookups); those signatures survive as deprecated thin
// shims over this struct.
//
// Environment defaults (core/env.hpp registry): a field left at its
// neutral value resolves against the corresponding knob at run time —
// jobs == 0 resolves to env::jobs(), snap_cache/path_interning are
// additionally gated by BGPSIM_SNAP_CACHE / BGPSIM_PATH_INTERN — so the
// environment configures every runner without each call site re-reading
// it, and an explicit field always wins in the off direction.
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

  /// Per-experiment AS-path interning (bgp::PathStore): structurally
  /// equal paths share one node, equality is pointer comparison. Outputs
  /// are bit-identical either way (the digest-equality suite enforces
  /// this); false is the A/B lever. true still requires
  /// BGPSIM_PATH_INTERN != 0.
  bool path_interning = true;

  /// Hierarchical timer-wheel event scheduling
  /// (sim::QueueBackend::kWheel). Outputs are bit-identical either way (the
  /// wheel digest-equality suite enforces this); false falls back to the
  /// (time, seq) binary heap — the A/B lever. true still requires
  /// BGPSIM_TIMER_WHEEL != 0.
  bool timer_wheel = true;

  /// Per-tick FIFO ring hop store in the data plane with batched
  /// per-(node, prefix) FIB decisions (fwd::PlaneBackend::kRings). Outputs
  /// are bit-identical either way (the data-plane digest-equality suite
  /// enforces this); false falls back to the (time, seq) binary-heap hop
  /// store with a per-packet FIB lookup — the A/B lever. true still
  /// requires BGPSIM_DATAPLANE_RINGS != 0.
  bool dataplane_rings = true;

  /// Caller-owned route-change trace sink, applied to every trial (forces
  /// serial execution and bypasses the prelude cache). Overrides
  /// Scenario::trace when non-null.
  metrics::TraceRecorder* trace = nullptr;

  /// Caller-owned invariant oracle, applied to every trial (forces serial
  /// execution and bypasses the prelude cache). Overrides Scenario::oracle
  /// when non-null.
  check::Oracle* oracle = nullptr;
};

namespace detail {

/// Effective process-wide path-interning toggle the BGP experiment driver
/// consults when opening its PathStore scope. The RunOptions engine sets
/// it around a run; outside any run it follows env::path_interning().
[[nodiscard]] bool path_interning_enabled();
void set_path_interning(bool on);

/// RAII: apply a RunOptions-resolved toggle for the duration of a run.
class PathInterningGuard {
 public:
  explicit PathInterningGuard(bool on)
      : prev_{path_interning_enabled()} {
    set_path_interning(on);
  }
  ~PathInterningGuard() { set_path_interning(prev_); }
  PathInterningGuard(const PathInterningGuard&) = delete;
  PathInterningGuard& operator=(const PathInterningGuard&) = delete;

 private:
  bool prev_;
};

/// RAII: pin the event-queue backend (sim::set_queue_backend_override)
/// for the duration of a run, restoring the exact previous override on
/// exit. Out-of-line so this header stays free of sim/ includes.
class TimerWheelGuard {
 public:
  explicit TimerWheelGuard(bool on);
  ~TimerWheelGuard();
  TimerWheelGuard(const TimerWheelGuard&) = delete;
  TimerWheelGuard& operator=(const TimerWheelGuard&) = delete;

 private:
  int prev_;
};

/// RAII: pin the data-plane hop-store backend
/// (fwd::set_plane_backend_override) for the duration of a run, restoring
/// the exact previous override on exit. Out-of-line so this header stays
/// free of fwd/ includes.
class DataPlaneRingsGuard {
 public:
  explicit DataPlaneRingsGuard(bool on);
  ~DataPlaneRingsGuard();
  DataPlaneRingsGuard(const DataPlaneRingsGuard&) = delete;
  DataPlaneRingsGuard& operator=(const DataPlaneRingsGuard&) = delete;

 private:
  int prev_;
};

}  // namespace detail

}  // namespace bgpsim::core
