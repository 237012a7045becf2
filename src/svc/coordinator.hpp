// Campaign coordinator: decompose a sweep into work units, dispatch them
// to worker processes, survive worker failure, merge bit-identically.
//
// A Coordinator is one svcd::Daemon running a single campaign, with no
// journal, admin socket or TCP listener, in exit_when_idle mode; the
// daemon's epoll loop does all the work:
//   - Every (scenario, trials) pair is decomposed into (scenario,
//     trial-range) units via core::decompose_trials.
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
#include <utility>

#include "svc/transport.hpp"
#include "svc/units.hpp"
#include "svcd/daemon.hpp"

namespace bgpsim::svc {

class Coordinator;

struct CampaignOptions {
  /// Per-unit wall-clock deadline in seconds; a worker that holds a unit
  /// longer is presumed wedged, killed (if local), and the unit requeued
  /// elsewhere. <= 0 disables deadlines.
  double deadline_s = 0;

  /// A unit is abandoned (campaign fails) after this many attempts; keeps
  /// a unit that deterministically kills workers from cycling forever.
  std::size_t max_attempts = 3;

  /// Test/progress hook: called after every completed unit with the
  /// coordinator and the number of units completed so far. Fault-tolerance
  /// tests use it to kill workers at a deterministic point mid-campaign.
  std::function<void(Coordinator&, std::size_t units_done)> on_unit_done;
};

class Coordinator {
 public:
  /// Throws std::invalid_argument for a spec the ledger rejects (no
  /// scenarios, or a scenario carrying observer hooks).
  Coordinator(CampaignSpec spec, CampaignOptions options = {});
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Spawn a worker by fork(): the child runs svc::worker_loop in-process
  /// over one end of a socketpair and _exits. No binary path needed —
  /// this is the library/test path.
  void spawn_fork_worker() { daemon_.spawn_fork_worker(); }

  /// Spawn a worker by fork()+exec of `worker_bin` (the examples/
  /// bgpsim_worker binary), talking over a socketpair on fd 0. Its stderr
  /// is relayed through this process's stderr, each line prefixed
  /// "[worker N] ".
  void spawn_exec_worker(const std::string& worker_bin) {
    daemon_.spawn_exec_worker(worker_bin);
  }

  /// Spawn a worker by fork()+exec of `worker_bin` told to connect back
  /// over localhost TCP to `port` (exercises the TCP transport end to
  /// end); the connection must then be handed in via accept + add_worker.
  /// The worker's `--id` is its index among these TCP spawns.
  pid_t spawn_exec_worker_tcp(const std::string& worker_bin,
                              std::uint16_t port) {
    return daemon_.spawn_exec_worker_tcp(worker_bin, port);
  }

  /// Attach an already-connected worker (e.g. accepted from a
  /// TcpListener). pid < 0 marks a worker this process cannot signal;
  /// stderr_fd < 0 means no stderr relay.
  void add_worker(Connection conn, pid_t pid, int stderr_fd) {
    daemon_.add_worker(std::move(conn), pid, stderr_fd);
  }

  /// Workers spawned or added so far, dead ones included.
  [[nodiscard]] std::size_t worker_count() const {
    return daemon_.worker_count();
  }

  /// pid of the i-th worker (spawn/add order), or -1 (TCP-attached /
  /// already gone).
  [[nodiscard]] pid_t worker_pid(std::size_t index) const {
    return daemon_.worker_pid(index);
  }

  /// Run the campaign to completion. Throws std::invalid_argument if no
  /// worker was ever added and std::runtime_error if every worker dies;
  /// throws CampaignError (a runtime_error carrying structured per-unit
  /// records) when any unit exhausts max_attempts or fails with a
  /// deterministic in-driver error. Workers are shut down and reaped
  /// before returning or throwing.
  [[nodiscard]] CampaignResult run();

 private:
  svcd::Daemon daemon_;
  std::uint64_t campaign_id_;
};

/// Convenience entry point: spawn `workers` fork-workers (default:
/// core::default_jobs()), run the campaign, return the merged result.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          std::size_t workers = 0,
                                          CampaignOptions options = {});

}  // namespace bgpsim::svc
