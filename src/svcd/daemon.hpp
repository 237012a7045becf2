// svcd::Daemon — the campaign service: one single-threaded epoll loop
// (svcd::EventLoop) that spawns or accepts worker processes, hands them
// (scenario, trial-range) units from each campaign's svc::UnitLedger, and
// merges their results. It:
//
//   - queues multiple campaigns (FIFO) submitted programmatically or over
//     a line-oriented unix admin socket (STATUS / SUBMIT / CANCEL);
//   - journals every state transition through svcd::Journal, so a daemon
//     killed mid-campaign resumes from the journal: completed units are
//     restored byte-for-byte, only units in flight at the crash re-run,
//     and the final digest is bit-identical to an uninterrupted run;
//   - streams one `bgpsim-bench-1` JSON line per completed unit (and one
//     per sealed campaign) to a results sink as work finishes, instead of
//     holding everything until the end;
//   - tolerates worker churn: TCP workers join mid-campaign through a
//     persistent listener, leave or die at any time, and each connection
//     is a fresh incarnation key in the UnitLedger's lease table, so the
//     requeue-on-different-worker exclusion logic survives arbitrary
//     join/leave sequences. Per-unit leases are EventLoop timers: a
//     worker that holds a unit past the deadline is failed and its unit
//     requeued elsewhere;
//   - relays exec-spawned workers' stderr line by line, each line
//     prefixed "[worker N] " (N = the worker key), including what a
//     worker wrote just before it died.
//
// Every piece is optional. bgpsimd turns them on; svc::Coordinator runs
// one campaign with none of them (no journal, admin socket or TCP
// listener) in exit_when_idle mode.
//
// The determinism contract is inherited from svc: trial i of scenario s
// is seeded from (s.seed + i) no matter which worker runs it, so any
// interleaving of churn, crashes, and resumes merges to the same bytes
// core::run_trials produces serially. Tests assert digest equality; the
// svcd_smoke harness does it end to end over the real binaries.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "svc/transport.hpp"
#include "svc/units.hpp"
#include "svcd/event_loop.hpp"
#include "svcd/journal.hpp"

namespace bgpsim::svcd {

class Daemon;

struct DaemonOptions {
  /// Journal file to create for this daemon's campaigns; "" disables
  /// journaling (campaigns are then not resumable).
  std::string journal_path;

  /// Resume from an existing journal instead: replay it (recovering a
  /// torn tail), restore every campaign, and continue appending to the
  /// same file. Mutually exclusive with journal_path.
  std::string resume_path;

  /// Unix-domain admin socket path; "" disables the admin interface.
  std::string admin_socket;

  /// Listen for TCP workers joining at runtime (port 0 = ephemeral; the
  /// bound port is in tcp_port() and every STATUS response).
  bool tcp_listen = false;
  std::uint16_t tcp_port = 0;

  /// Per-unit lease in seconds; a worker holding a unit longer is failed
  /// and the unit requeued. <= 0 disables leases.
  double deadline_s = 0;

  /// Attempt cap per unit (see UnitLedger).
  std::size_t max_attempts = 3;

  /// Streaming results sink for bgpsim-bench-1 JSON lines; nullptr
  /// disables streaming.
  std::FILE* results = nullptr;

  /// One-shot mode: stop run() once at least one campaign was submitted
  /// and every submitted campaign reached a terminal state.
  bool exit_when_idle = false;

  /// Install SIGINT/SIGTERM handling (signalfd): a signal stops the loop
  /// gracefully. Off by default so embedding in tests leaves signal
  /// disposition alone.
  bool handle_signals = false;

  /// Test/progress hook, called after every merged unit.
  std::function<void(Daemon&, std::uint64_t campaign_id,
                     std::size_t units_done)>
      on_unit_done;
};

class Daemon {
 public:
  enum class CampaignState { kQueued, kRunning, kDone, kFailed, kCancelled };

  struct CampaignStatus {
    std::uint64_t id = 0;
    CampaignState state = CampaignState::kQueued;
    std::size_t units_done = 0;
    std::size_t unit_count = 0;
    std::uint64_t digest = 0;  // nonzero once sealed
  };

  explicit Daemon(DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Queue a campaign (journaled immediately). Returns its campaign id.
  std::uint64_t submit(svc::CampaignSpec spec);

  /// Cancel a campaign. Queued campaigns never start; a running one stops
  /// dispatching and drops late results. Cancellation is NOT journaled: a
  /// resume re-queues the campaign. Returns false for unknown/terminal id.
  bool cancel(std::uint64_t campaign_id);

  [[nodiscard]] std::vector<CampaignStatus> status() const;

  /// Result of a campaign in state kDone. Throws CampaignError for
  /// kFailed (with the per-unit failure records), std::logic_error
  /// otherwise.
  [[nodiscard]] svc::CampaignResult take_result(std::uint64_t campaign_id);

  /// Fork a worker that runs svc::worker_loop in-process over a
  /// socketpair and _exits (library/test path; no binary needed).
  void spawn_fork_worker();

  /// Fork+exec `worker_bin` (examples/bgpsim_worker) talking over a
  /// socketpair on its fd 0; its stderr is relayed.
  void spawn_exec_worker(const std::string& worker_bin);

  /// Fork+exec `worker_bin` told to connect back over localhost TCP to
  /// `port`, with `--id` its index among this daemon's TCP spawns (0, 1,
  /// ...), so a caller can map the worker's Hello back to the returned
  /// pid. The connection arrives on the caller's listener; hand it in
  /// with add_worker.
  pid_t spawn_exec_worker_tcp(const std::string& worker_bin,
                              std::uint16_t port);

  /// Attach a connected worker; it takes work from the next dispatch.
  /// pid < 0 marks a worker this process cannot signal; stderr_fd >= 0 is
  /// a pipe from the worker's stderr to relay (the daemon owns it).
  void add_worker(svc::Connection conn, pid_t pid, int stderr_fd);

  [[nodiscard]] std::uint16_t tcp_port() const;
  /// Workers ever attached, dead ones included. Keys are issued densely
  /// from 0 in attach order, so they double as indices.
  [[nodiscard]] std::size_t worker_count() const { return next_worker_key_; }
  /// pid of worker `key`, or -1 once it is gone (or was never local).
  [[nodiscard]] pid_t worker_pid(std::uint64_t key) const;
  /// pids of live fork-spawned workers (tests kill these to drill churn).
  [[nodiscard]] std::vector<pid_t> worker_pids() const;

  /// Dispatch and handle events until stop() — or, in exit_when_idle
  /// mode, until the queue drains. Throws std::runtime_error if progress
  /// became impossible (every worker died with no way to get more).
  void run();
  void stop() { loop_.stop(); }

 private:
  struct Campaign {
    std::uint64_t id = 0;
    svc::UnitLedger ledger;
    CampaignState state = CampaignState::kQueued;
    std::optional<svc::CampaignResult> result;
    std::size_t workers_lost = 0;
    Campaign(std::uint64_t id_, svc::UnitLedger ledger_)
        : id{id_}, ledger{std::move(ledger_)} {}
  };

  struct Worker {
    std::uint64_t key = 0;
    svc::Connection conn;
    pid_t pid = -1;
    int stderr_fd = -1;
    std::uint64_t conn_token = 0;
    std::uint64_t stderr_token = 0;
    std::uint64_t lease_timer = 0;  // 0 = no lease armed
    bool inflight = false;
    std::uint64_t inflight_campaign = 0;
    std::uint64_t inflight_unit = 0;  // campaign-local unit id
    std::string stderr_partial;
  };

  struct AdminClient {
    int fd = -1;
    std::uint64_t token = 0;
    std::string inbuf;
  };

  Campaign* active_campaign();
  Campaign* find_campaign(std::uint64_t id);
  void restore_from_journal(const std::string& path);
  void seal_campaign(Campaign& c);
  void finish_failed(Campaign& c);
  void dispatch();
  void on_worker_readable(std::uint64_t key);
  void handle_worker_frame(Worker& w, const svc::Frame& frame);
  void clear_inflight(Worker& w);
  void fail_worker(std::uint64_t key, const std::string& why);
  void relay_stderr(Worker& w, bool closing);
  void check_progress_possible();
  void maybe_exit_idle();
  void stream_unit_line(const Campaign& c, const svc::UnitResult& result);
  void stream_campaign_line(const Campaign& c);
  void open_admin_socket();
  void on_admin_accept();
  void on_admin_readable(int fd);
  [[nodiscard]] std::string handle_admin_command(const std::string& line);
  void shutdown_workers();
  void close_all_in_forked_child();

  DaemonOptions options_;
  EventLoop loop_;
  std::optional<Journal> journal_;
  std::vector<std::unique_ptr<Campaign>> campaigns_;
  std::uint64_t next_campaign_id_ = 1;
  std::map<std::uint64_t, Worker> workers_;
  std::uint64_t next_worker_key_ = 0;
  std::uint64_t tcp_spawns_ = 0;
  std::optional<svc::TcpListener> tcp_listener_;
  int admin_fd_ = -1;  // listening unix socket
  std::map<int, AdminClient> admin_clients_;
  bool any_submitted_ = false;
  std::string fatal_error_;
};

/// One-shot helpers powering `run_campaign --journal/--resume` and the
/// resume tests: run (or resume) a journaled campaign over `workers`
/// fork-workers and return the merged result. Throws CampaignError on
/// permanent unit failure, runtime_error if every worker died,
/// snap::FormatError on a corrupt journal.
struct JournaledRunOptions {
  std::size_t workers = 0;  // 0 = core::default_jobs()
  double deadline_s = 0;
  std::size_t max_attempts = 3;
  std::FILE* results = nullptr;
  std::function<void(Daemon&, std::uint64_t, std::size_t)> on_unit_done;
};

[[nodiscard]] svc::CampaignResult run_journaled_campaign(
    const svc::CampaignSpec& spec, const std::string& journal_path,
    const JournaledRunOptions& options = {});

[[nodiscard]] svc::CampaignResult resume_journaled_campaign(
    const std::string& journal_path, const JournaledRunOptions& options = {});

}  // namespace bgpsim::svcd
