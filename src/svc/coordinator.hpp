// Campaign coordinator: decompose a sweep into work units, dispatch them
// to worker processes, survive worker failure, merge bit-identically.
//
// Execution model — a single-threaded poll() loop:
//   - Decompose every (scenario, trials) pair into (scenario, trial-range)
//     units via core::decompose_trials.
//   - Dispatch is pull-based work stealing: whenever a worker is idle, it
//     is handed the oldest pending unit it is not excluded from, so fast
//     workers naturally take more units and a straggler never stalls the
//     queue behind it.
//   - Worker death (EOF on its connection, detected the instant the
//     kernel closes the socket — including SIGKILL) or a blown per-unit
//     deadline requeues the in-flight unit with the failed worker
//     excluded, kills the process if it is local and still running, and
//     carries on with the survivors.
//   - Results are merged by trial index into per-scenario slots; the
//     final aggregate is assembled by core::assemble_trials — the same
//     aggregation code as run_trials — so a campaign's TrialSet is
//     bit-identical to core::run_trials at any worker count and
//     over any transport (verified by svc::campaign_digest in tests and
//     the svc_smoke CTest entry).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "svc/protocol.hpp"
#include "svc/transport.hpp"
#include "svc/units.hpp"

namespace bgpsim::svc {

struct CampaignResult {
  std::vector<core::TrialSet> sets;  // one per spec scenario, in order
  std::uint64_t digest = 0;          // svc::campaign_digest(sets)
  std::size_t units_dispatched = 0;  // includes requeues
  std::size_t requeues = 0;
  std::size_t workers_lost = 0;
};

class Coordinator;

struct CampaignOptions {
  /// Per-unit wall-clock deadline in seconds; a worker that holds a unit
  /// longer is presumed wedged, killed (if local), and the unit requeued
  /// elsewhere. <= 0 disables deadlines.
  double deadline_s = 0;

  /// A unit is abandoned (campaign fails) after this many attempts; keeps
  /// a unit that deterministically kills workers from cycling forever.
  std::size_t max_attempts = 3;

  /// Relay worker stderr through the coordinator's stderr, each line
  /// prefixed with "[worker N] " (only for exec-spawned workers, which
  /// get a stderr pipe).
  bool relay_stderr = true;

  /// Test/progress hook: called after every completed unit with the
  /// coordinator and the number of units completed so far. Fault-tolerance
  /// tests use it to kill workers at a deterministic point mid-campaign.
  std::function<void(Coordinator&, std::size_t units_done)> on_unit_done;
};

class Coordinator {
 public:
  Coordinator(CampaignSpec spec, CampaignOptions options = {});
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Spawn a worker by fork(): the child runs svc::worker_loop in-process
  /// over one end of a socketpair and _exits. No binary path needed —
  /// this is the library/test path.
  void spawn_fork_worker();

  /// Spawn a worker by fork()+exec of `worker_bin` (the examples/
  /// bgpsim_worker binary), talking over a socketpair on fd 0, stderr
  /// captured through a relay pipe.
  void spawn_exec_worker(const std::string& worker_bin);

  /// Spawn a worker by fork()+exec of `worker_bin` told to connect back
  /// over localhost TCP to `port` (exercises the TCP transport end to
  /// end); the connection must then be handed in via accept + add_worker.
  pid_t spawn_exec_worker_tcp(const std::string& worker_bin,
                              std::uint16_t port);

  /// Attach an already-connected worker (e.g. accepted from a
  /// TcpListener). pid < 0 marks a worker this process cannot signal;
  /// stderr_fd < 0 means no stderr relay.
  void add_worker(Connection conn, pid_t pid, int stderr_fd);

  [[nodiscard]] std::size_t worker_count() const;

  /// pid of the i-th *live* worker, or -1 (TCP-attached / already gone).
  [[nodiscard]] pid_t worker_pid(std::size_t index) const;

  /// Run the campaign to completion. Throws std::runtime_error if every
  /// worker dies; throws CampaignError (a runtime_error carrying
  /// structured per-unit records) when any unit exhausts max_attempts or
  /// fails with a deterministic in-driver error. Workers are shut down and
  /// reaped before returning or throwing.
  [[nodiscard]] CampaignResult run();

 private:
  struct Worker;

  void dispatch_idle_workers();
  void handle_frame(std::size_t widx, const Frame& frame);
  void fail_worker(std::size_t widx, const std::string& why);
  void relay_stderr_bytes(std::size_t widx);
  void shutdown_workers();
  [[nodiscard]] std::size_t live_workers() const;

  CampaignOptions options_;
  // Unit dispatch/merge state machine, shared with the svcd daemon. The
  // coordinator's worker slots are stable, so the slot index doubles as
  // the ledger's worker key.
  UnitLedger ledger_;
  std::vector<Worker> workers_;
  CampaignResult stats_;
};

/// Convenience entry point: spawn `workers` fork-workers (default:
/// core::default_jobs()), run the campaign, return the merged result.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          std::size_t workers = 0,
                                          CampaignOptions options = {});

}  // namespace bgpsim::svc
