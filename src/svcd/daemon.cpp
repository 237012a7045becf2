#include "svcd/daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/report.hpp"
#include "core/scenario_file.hpp"
#include "core/sweep.hpp"
#include "sim/logging.hpp"
#include "svc/worker.hpp"

namespace bgpsim::svcd {
namespace {

void log_svcd(const std::string& message) {
  sim::LogLine{sim::LogLevel::kInfo, "svcd", sim::SimTime::zero()} << message;
}

void reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

constexpr std::uint64_t kLocalUnitMask = 0xFFFF'FFFFULL;

std::uint64_t wire_unit_id(std::uint64_t campaign_id, std::uint64_t local) {
  return (campaign_id << 32) | (local & kLocalUnitMask);
}

// Post-fork, in the child: become `worker_bin`, or exit 127.
[[noreturn]] void exec_worker(const std::string& worker_bin, const char* flag,
                              const std::string& value,
                              const std::string& id) {
  ::execl(worker_bin.c_str(), "bgpsim_worker", flag, value.c_str(), "--id",
          id.c_str(), static_cast<char*>(nullptr));
  std::fprintf(stderr, "svcd: exec %s failed: %s\n", worker_bin.c_str(),
               std::strerror(errno));
  ::_exit(127);
}

const char* state_name(Daemon::CampaignState s) {
  switch (s) {
    case Daemon::CampaignState::kQueued:
      return "queued";
    case Daemon::CampaignState::kRunning:
      return "running";
    case Daemon::CampaignState::kDone:
      return "done";
    case Daemon::CampaignState::kFailed:
      return "failed";
    case Daemon::CampaignState::kCancelled:
      return "cancelled";
  }
  return "?";
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_{std::move(options)} {
  if (!options_.journal_path.empty() && !options_.resume_path.empty()) {
    throw std::invalid_argument{
        "svcd: journal_path and resume_path are mutually exclusive"};
  }
  if (options_.handle_signals) {
    loop_.watch_signals({SIGINT, SIGTERM}, [this](int signo) {
      log_svcd(std::string{"received "} +
               (signo == SIGINT ? "SIGINT" : "SIGTERM") + ", shutting down");
      loop_.stop();
    });
  }
  if (options_.tcp_listen) {
    tcp_listener_ = svc::TcpListener::bind_localhost(options_.tcp_port);
    loop_.watch(tcp_listener_->fd(), EPOLLIN, [this](std::uint32_t) {
      svc::Connection conn = tcp_listener_->accept_one(0);
      if (!conn.valid()) return;
      log_svcd("TCP worker joined");
      add_worker(std::move(conn), -1, -1);
      dispatch();
    });
  }
  if (!options_.admin_socket.empty()) open_admin_socket();
  if (!options_.journal_path.empty()) {
    journal_ = Journal::create(options_.journal_path);
  } else if (!options_.resume_path.empty()) {
    restore_from_journal(options_.resume_path);
  }
}

Daemon::~Daemon() {
  shutdown_workers();
  for (auto& [fd, client] : admin_clients_) ::close(fd);
  admin_clients_.clear();
  if (admin_fd_ >= 0) {
    ::close(admin_fd_);
    ::unlink(options_.admin_socket.c_str());
  }
}

Daemon::Campaign* Daemon::active_campaign() {
  for (const auto& c : campaigns_) {
    if (c->state == CampaignState::kQueued ||
        c->state == CampaignState::kRunning) {
      return c.get();
    }
  }
  return nullptr;
}

Daemon::Campaign* Daemon::find_campaign(std::uint64_t id) {
  for (const auto& c : campaigns_) {
    if (c->id == id) return c.get();
  }
  return nullptr;
}

std::uint64_t Daemon::submit(svc::CampaignSpec spec) {
  const std::uint64_t id = next_campaign_id_++;
  svc::UnitLedger ledger{std::move(spec), options_.max_attempts};
  if (journal_) {
    journal_->campaign_header(id, ledger.spec(), options_.max_attempts);
    journal_->sync();
  }
  campaigns_.push_back(std::make_unique<Campaign>(id, std::move(ledger)));
  any_submitted_ = true;
  log_svcd("campaign " + std::to_string(id) + " submitted (" +
           std::to_string(campaigns_.back()->ledger.unit_count()) + " units)");
  dispatch();
  return id;
}

bool Daemon::cancel(std::uint64_t campaign_id) {
  Campaign* c = find_campaign(campaign_id);
  if (c == nullptr || (c->state != CampaignState::kQueued &&
                       c->state != CampaignState::kRunning)) {
    return false;
  }
  c->state = CampaignState::kCancelled;
  log_svcd("campaign " + std::to_string(campaign_id) + " cancelled");
  dispatch();
  maybe_exit_idle();
  return true;
}

std::vector<Daemon::CampaignStatus> Daemon::status() const {
  std::vector<CampaignStatus> out;
  out.reserve(campaigns_.size());
  for (const auto& c : campaigns_) {
    CampaignStatus s;
    s.id = c->id;
    s.state = c->state;
    s.units_done = c->ledger.done();
    s.unit_count = c->ledger.unit_count();
    if (c->result) s.digest = c->result->digest;
    out.push_back(s);
  }
  return out;
}

svc::CampaignResult Daemon::take_result(std::uint64_t campaign_id) {
  Campaign* c = find_campaign(campaign_id);
  if (c == nullptr) {
    throw std::logic_error{"svcd: unknown campaign " +
                           std::to_string(campaign_id)};
  }
  if (c->state == CampaignState::kFailed) {
    throw svc::CampaignError{
        "svcd: campaign " + std::to_string(campaign_id) + " failed — " +
            std::to_string(c->ledger.failures().size()) +
            " unit(s) failed permanently",
        c->ledger.failures()};
  }
  if (c->state != CampaignState::kDone || !c->result) {
    throw std::logic_error{"svcd: campaign " + std::to_string(campaign_id) +
                           " has no result (state " + state_name(c->state) +
                           ")"};
  }
  svc::CampaignResult result = std::move(*c->result);
  c->result.reset();
  return result;
}

void Daemon::restore_from_journal(const std::string& path) {
  JournalReplay replay = replay_journal(path, TornTail::kRecover);
  if (replay.torn_tail) {
    log_svcd("journal " + path + " had a torn tail record (crash mid-append);"
             " discarded it and truncating to " +
             std::to_string(replay.valid_bytes) + " byte(s)");
  }
  journal_ = Journal::append_to(path, replay.valid_bytes);
  for (JournalCampaign& jc : replay.campaigns) {
    svc::UnitLedger ledger{std::move(jc.spec), jc.max_attempts};
    for (const svc::UnitResult& r : jc.completed) ledger.restore_completed(r);
    auto c = std::make_unique<Campaign>(jc.campaign_id, std::move(ledger));
    next_campaign_id_ = std::max(next_campaign_id_, jc.campaign_id + 1);
    if (jc.sealed) {
      if (!c->ledger.complete()) {
        throw snap::FormatError{
            "svcd journal: campaign " + std::to_string(jc.campaign_id) +
            " is sealed but missing completion records"};
      }
      svc::CampaignResult result;
      result.sets = c->ledger.assemble();
      result.digest = svc::campaign_digest(result.sets);
      if (result.digest != jc.sealed_digest) {
        throw snap::FormatError{
            "svcd journal: campaign " + std::to_string(jc.campaign_id) +
            " sealed digest " + hex64(jc.sealed_digest) +
            " does not match replayed digest " + hex64(result.digest)};
      }
      c->result = std::move(result);
      c->state = CampaignState::kDone;
    } else if (c->ledger.complete()) {
      // Crashed after the last completion record but before the seal.
      seal_campaign(*c);
    } else {
      log_svcd("campaign " + std::to_string(jc.campaign_id) + " resumes: " +
               std::to_string(c->ledger.done()) + "/" +
               std::to_string(c->ledger.unit_count()) +
               " unit(s) restored from the journal, " +
               std::to_string(jc.inflight_at_crash.size()) +
               " in flight at the crash will re-run");
    }
    any_submitted_ = true;
    campaigns_.push_back(std::move(c));
  }
}

void Daemon::seal_campaign(Campaign& c) {
  svc::CampaignResult result;
  result.sets = c.ledger.assemble();
  result.digest = svc::campaign_digest(result.sets);
  result.units_dispatched = c.ledger.dispatched();
  result.requeues = c.ledger.requeues();
  result.workers_lost = c.workers_lost;
  if (journal_) {
    journal_->campaign_sealed(c.id, result.digest, c.ledger.done());
    journal_->sync();
  }
  c.result = std::move(result);
  c.state = CampaignState::kDone;
  log_svcd("campaign " + std::to_string(c.id) + " sealed, digest " +
           hex64(c.result->digest));
  stream_campaign_line(c);
  maybe_exit_idle();
}

void Daemon::finish_failed(Campaign& c) {
  if (c.state == CampaignState::kFailed) return;
  c.state = CampaignState::kFailed;
  log_svcd("campaign " + std::to_string(c.id) + " failed: " +
           std::to_string(c.ledger.failures().size()) +
           " unit(s) failed permanently");
  maybe_exit_idle();
}

void Daemon::spawn_fork_worker() {
  svc::SocketPair pair = svc::make_socketpair();
  const std::uint64_t key = next_worker_key_;  // the key add_worker issues
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error{"svcd: fork failed"};
  if (pid == 0) {
    pair.coordinator.close();
    close_all_in_forked_child();
    ::_exit(svc::worker_loop(std::move(pair.worker), key));
  }
  pair.worker.close();
  add_worker(std::move(pair.coordinator), pid, -1);
}

void Daemon::spawn_exec_worker(const std::string& worker_bin) {
  svc::SocketPair pair = svc::make_socketpair();
  int errpipe[2];
  if (::pipe(errpipe) < 0) throw std::runtime_error{"svcd: pipe failed"};
  const std::string id = std::to_string(next_worker_key_);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error{"svcd: fork failed"};
  if (pid == 0) {
    ::dup2(pair.worker.fd(), 0);
    ::dup2(errpipe[1], 2);
    pair.worker.close();
    pair.coordinator.close();
    ::close(errpipe[0]);
    ::close(errpipe[1]);
    close_all_in_forked_child();
    exec_worker(worker_bin, "--fd", "0", id);
  }
  pair.worker.close();
  ::close(errpipe[1]);
  add_worker(std::move(pair.coordinator), pid, errpipe[0]);
}

pid_t Daemon::spawn_exec_worker_tcp(const std::string& worker_bin,
                                    std::uint16_t port) {
  const std::string addr = "127.0.0.1:" + std::to_string(port);
  const std::string id = std::to_string(tcp_spawns_++);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error{"svcd: fork failed"};
  if (pid == 0) {
    close_all_in_forked_child();
    exec_worker(worker_bin, "--connect", addr, id);
  }
  return pid;
}

void Daemon::close_all_in_forked_child() {
  // A forked worker must not keep any daemon-side descriptor open: a held
  // worker-connection fd would defeat EOF-on-death detection for that
  // sibling, a held journal fd could outlive a truncate, and inherited
  // epoll/signalfd state would leave the child uninterruptible.
  loop_.close_fds_after_fork();
  if (journal_) journal_->close();
  for (auto& [key, w] : workers_) {
    w.conn.close();
    if (w.stderr_fd >= 0) ::close(w.stderr_fd);
  }
  if (tcp_listener_ && tcp_listener_->fd() >= 0) ::close(tcp_listener_->fd());
  if (admin_fd_ >= 0) ::close(admin_fd_);
  for (auto& [fd, client] : admin_clients_) ::close(fd);
}

void Daemon::add_worker(svc::Connection conn, pid_t pid, int stderr_fd) {
  conn.set_nonblocking();
  const std::uint64_t key = next_worker_key_++;
  Worker& w = workers_[key];
  w.key = key;
  w.conn = std::move(conn);
  w.pid = pid;
  w.conn_token = loop_.watch(
      w.conn.fd(), EPOLLIN,
      [this, key](std::uint32_t) { on_worker_readable(key); });
  if (stderr_fd >= 0) {
    // The relay must never block on a live worker's open pipe.
    (void)::fcntl(stderr_fd, F_SETFL, ::fcntl(stderr_fd, F_GETFL) | O_NONBLOCK);
    w.stderr_fd = stderr_fd;
    w.stderr_token = loop_.watch(stderr_fd, EPOLLIN, [this, key](std::uint32_t) {
      const auto it = workers_.find(key);
      if (it != workers_.end()) relay_stderr(it->second, /*closing=*/false);
    });
  }
}

std::uint16_t Daemon::tcp_port() const {
  return tcp_listener_ ? tcp_listener_->port() : 0;
}

pid_t Daemon::worker_pid(std::uint64_t key) const {
  const auto it = workers_.find(key);
  return it == workers_.end() ? -1 : it->second.pid;
}

std::vector<pid_t> Daemon::worker_pids() const {
  std::vector<pid_t> pids;
  for (const auto& [key, w] : workers_) {
    if (w.pid > 0) pids.push_back(w.pid);
  }
  return pids;
}

void Daemon::dispatch() {
  Campaign* c = active_campaign();
  if (c == nullptr) return;
  // Snapshot the keys: fail_worker during a failed send erases map entries.
  std::vector<std::uint64_t> keys;
  keys.reserve(workers_.size());
  for (const auto& [key, w] : workers_) keys.push_back(key);
  for (const std::uint64_t key : keys) {
    auto it = workers_.find(key);
    if (it == workers_.end() || it->second.inflight) continue;
    Worker& w = it->second;
    std::optional<svc::WorkUnit> wu = c->ledger.acquire(key);
    if (!wu) continue;  // nothing this worker can take (yet)
    c->state = CampaignState::kRunning;
    const std::uint64_t local = wu->unit_id;
    if (journal_) journal_->unit_dispatched(c->id, local, key);
    wu->unit_id = wire_unit_id(c->id, local);
    w.inflight = true;
    w.inflight_campaign = c->id;
    w.inflight_unit = local;
    if (options_.deadline_s > 0) {
      const auto ms =
          static_cast<std::uint64_t>(options_.deadline_s * 1000.0);
      w.lease_timer = loop_.add_timer(ms, [this, key] {
        auto wit = workers_.find(key);
        if (wit == workers_.end() || !wit->second.inflight) return;
        wit->second.lease_timer = 0;
        fail_worker(key, "unit lease (" +
                             std::to_string(options_.deadline_s) +
                             " s) expired");
        dispatch();
      });
    }
    if (!w.conn.send_frame(svc::encode_work(*wu))) {
      fail_worker(key, "send failed (worker gone)");
    }
    if (c->state != CampaignState::kRunning) break;  // campaign just failed
  }
  if (!c->ledger.failures().empty()) finish_failed(*c);
}

void Daemon::on_worker_readable(std::uint64_t key) {
  auto it = workers_.find(key);
  if (it == workers_.end()) return;
  const svc::Connection::Pump status = it->second.conn.pump();
  try {
    for (;;) {
      it = workers_.find(key);
      if (it == workers_.end()) return;
      std::optional<svc::Frame> frame = it->second.conn.next_frame();
      if (!frame) break;
      handle_worker_frame(it->second, *frame);
    }
  } catch (const snap::FormatError& e) {
    // A corrupt stream cannot be resynchronized; drop the worker and let
    // the lease table recover its unit.
    fail_worker(key, std::string{"protocol violation: "} + e.what());
    dispatch();
    return;
  }
  if (status == svc::Connection::Pump::kEof) {
    fail_worker(key, "connection closed (worker left or died)");
  }
  dispatch();
}

void Daemon::handle_worker_frame(Worker& w, const svc::Frame& frame) {
  switch (frame.type) {
    case svc::FrameType::kHello: {
      const svc::Hello hello = svc::decode_hello(frame);
      log_svcd("worker key " + std::to_string(w.key) + " up (pid " +
               std::to_string(hello.pid) + ")");
      return;
    }
    case svc::FrameType::kResult: {
      svc::UnitResult result = svc::decode_result(frame);
      const std::uint64_t campaign_id = result.unit_id >> 32;
      result.unit_id &= kLocalUnitMask;
      Campaign* c = find_campaign(campaign_id);
      if (c == nullptr) {
        throw snap::FormatError{"svcd: result for unknown campaign " +
                                std::to_string(campaign_id)};
      }
      if (c->state == CampaignState::kCancelled ||
          c->state == CampaignState::kFailed) {
        clear_inflight(w);
        return;  // late result for a dead campaign: drop
      }
      // accept() throws on shape mismatch; w.inflight stays set so
      // fail_worker requeues the real unit.
      const svc::UnitLedger::Accept accepted = c->ledger.accept(result);
      clear_inflight(w);
      if (accepted == svc::UnitLedger::Accept::kDuplicate) {
        log_svcd("dropping duplicate result for campaign " +
                 std::to_string(campaign_id) + " unit " +
                 std::to_string(result.unit_id));
        return;
      }
      if (journal_) {
        journal_->unit_completed(campaign_id, result);
        journal_->sync();
      }
      stream_unit_line(*c, result);
      if (options_.on_unit_done) {
        options_.on_unit_done(*this, campaign_id, c->ledger.done());
      }
      if (c->ledger.complete()) seal_campaign(*c);
      return;
    }
    case svc::FrameType::kError: {
      const svc::UnitError err = svc::decode_error(frame);
      const std::uint64_t campaign_id = err.unit_id >> 32;
      const std::uint64_t local = err.unit_id & kLocalUnitMask;
      clear_inflight(w);
      Campaign* c = find_campaign(campaign_id);
      if (c == nullptr) {
        throw snap::FormatError{"svcd: error for unknown campaign " +
                                std::to_string(campaign_id)};
      }
      if (c->state != CampaignState::kRunning) return;
      // Deterministic in-driver failure: retries would recur (serial
      // semantics), so the unit is abandoned and the campaign fails.
      c->ledger.fail_deterministic(
          local, "worker key " + std::to_string(w.key) +
                     " reported: " + err.message);
      finish_failed(*c);
      return;
    }
    default:
      throw snap::FormatError{
          "svcd: unexpected frame type " +
          std::to_string(static_cast<int>(frame.type)) + " from worker"};
  }
}

void Daemon::clear_inflight(Worker& w) {
  w.inflight = false;
  if (w.lease_timer != 0) {
    loop_.cancel_timer(w.lease_timer);
    w.lease_timer = 0;
  }
}

void Daemon::fail_worker(std::uint64_t key, const std::string& why) {
  auto it = workers_.find(key);
  if (it == workers_.end()) return;
  Worker& w = it->second;
  log_svcd("worker key " + std::to_string(key) + " lost: " + why);
  if (Campaign* c = active_campaign()) ++c->workers_lost;
  if (w.lease_timer != 0) loop_.cancel_timer(w.lease_timer);
  loop_.unwatch(w.conn_token);
  w.conn.close();
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);  // no-op if already dead
    reap(w.pid);
  }
  // After the reap, so the relay gets all the worker wrote before dying.
  if (w.stderr_fd >= 0) relay_stderr(w, /*closing=*/true);
  const bool had_inflight = w.inflight;
  const std::uint64_t campaign_id = w.inflight_campaign;
  const std::uint64_t local = w.inflight_unit;
  workers_.erase(it);
  if (had_inflight) {
    Campaign* c = find_campaign(campaign_id);
    if (c != nullptr && c->state == CampaignState::kRunning) {
      (void)c->ledger.release(local, key, why);
      if (!c->ledger.failures().empty()) finish_failed(*c);
    }
  }
  check_progress_possible();
}

void Daemon::relay_stderr(Worker& w, bool closing) {
  char buf[4096];
  bool eof = false;
  for (;;) {
    const ssize_t r = ::read(w.stderr_fd, buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      eof = r == 0;
      break;  // EAGAIN, EOF or error: relay what has arrived
    }
    w.stderr_partial.append(buf, static_cast<std::size_t>(r));
    if (!closing && static_cast<std::size_t>(r) < sizeof buf) break;
  }
  const auto key = static_cast<unsigned long long>(w.key);
  std::size_t begin = 0;
  for (std::size_t nl; (nl = w.stderr_partial.find('\n', begin)) !=
                       std::string::npos;
       begin = nl + 1) {
    std::fprintf(stderr, "[worker %llu] %.*s\n", key,
                 static_cast<int>(nl - begin), w.stderr_partial.data() + begin);
  }
  w.stderr_partial.erase(0, begin);
  if (!eof && !closing) return;
  if (!w.stderr_partial.empty()) {
    std::fprintf(stderr, "[worker %llu] %s\n", key, w.stderr_partial.c_str());
    w.stderr_partial.clear();
  }
  loop_.unwatch(w.stderr_token);
  ::close(w.stderr_fd);
  w.stderr_fd = -1;
}

void Daemon::check_progress_possible() {
  if (!workers_.empty() || tcp_listener_) return;
  const Campaign* c = active_campaign();
  if (c == nullptr) return;
  // No worker left and no way for one to join: the queue can never drain.
  fatal_error_ = "svcd: campaign " + std::to_string(c->id) +
                 " failed — every worker died with " +
                 std::to_string(c->ledger.unit_count() - c->ledger.done()) +
                 " unit(s) outstanding and no TCP listener for replacements";
  loop_.stop();
}

void Daemon::maybe_exit_idle() {
  if (!options_.exit_when_idle || !any_submitted_) return;
  if (active_campaign() != nullptr) return;
  loop_.stop();
}

void Daemon::stream_unit_line(const Campaign& c,
                              const svc::UnitResult& result) {
  if (options_.results == nullptr) return;
  core::Table table{{"campaign", "unit", "scenario", "trial_begin", "trials",
                     "done", "total"}};
  table.add_row({std::to_string(c.id), std::to_string(result.unit_id),
                 std::to_string(result.scenario_index),
                 std::to_string(result.trial_begin),
                 std::to_string(result.outcomes.size()),
                 std::to_string(c.ledger.done()),
                 std::to_string(c.ledger.unit_count())});
  std::ostringstream os;
  table.write_json(os, "unit");
  std::fprintf(options_.results,
               "{\"schema\": \"bgpsim-bench-1\", \"bench\": \"svcd_unit\", "
               "\"tables\": [%s]}\n",
               os.str().c_str());
  std::fflush(options_.results);
}

void Daemon::stream_campaign_line(const Campaign& c) {
  if (options_.results == nullptr || !c.result) return;
  core::Table table{{"campaign", "digest", "units", "dispatched", "requeues"}};
  table.add_row({std::to_string(c.id), hex64(c.result->digest),
                 std::to_string(c.ledger.done()),
                 std::to_string(c.result->units_dispatched),
                 std::to_string(c.result->requeues)});
  std::ostringstream os;
  table.write_json(os, "campaign");
  std::fprintf(options_.results,
               "{\"schema\": \"bgpsim-bench-1\", \"bench\": \"svcd_campaign\", "
               "\"tables\": [%s]}\n",
               os.str().c_str());
  std::fflush(options_.results);
}

void Daemon::open_admin_socket() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.admin_socket.size() >= sizeof addr.sun_path) {
    throw std::invalid_argument{"svcd: admin socket path too long: " +
                                options_.admin_socket};
  }
  std::memcpy(addr.sun_path, options_.admin_socket.c_str(),
              options_.admin_socket.size() + 1);
  ::unlink(options_.admin_socket.c_str());
  admin_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (admin_fd_ < 0) throw std::runtime_error{"svcd: socket(AF_UNIX) failed"};
  if (::bind(admin_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(admin_fd_, 8) < 0) {
    ::close(admin_fd_);
    admin_fd_ = -1;
    throw std::runtime_error{"svcd: cannot listen on admin socket " +
                             options_.admin_socket + ": " +
                             std::strerror(errno)};
  }
  loop_.watch(admin_fd_, EPOLLIN, [this](std::uint32_t) { on_admin_accept(); });
}

void Daemon::on_admin_accept() {
  const int fd = ::accept4(admin_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) return;
  AdminClient client;
  client.fd = fd;
  client.token =
      loop_.watch(fd, EPOLLIN, [this, fd](std::uint32_t) { on_admin_readable(fd); });
  admin_clients_.emplace(fd, std::move(client));
}

void Daemon::on_admin_readable(int fd) {
  auto it = admin_clients_.find(fd);
  if (it == admin_clients_.end()) return;
  char buf[4096];
  const ssize_t r = ::read(fd, buf, sizeof buf);
  if (r <= 0) {
    loop_.unwatch(it->second.token);
    ::close(fd);
    admin_clients_.erase(it);
    return;
  }
  it->second.inbuf.append(buf, static_cast<std::size_t>(r));
  std::size_t nl;
  while ((nl = it->second.inbuf.find('\n')) != std::string::npos) {
    const std::string line = it->second.inbuf.substr(0, nl);
    it->second.inbuf.erase(0, nl + 1);
    const std::string response = handle_admin_command(line);
    std::size_t off = 0;
    while (off < response.size()) {
      const ssize_t n =
          ::send(fd, response.data() + off, response.size() - off,
                 MSG_NOSIGNAL);
      if (n <= 0) break;  // client gone; EOF cleanup follows
      off += static_cast<std::size_t>(n);
    }
    it = admin_clients_.find(fd);
    if (it == admin_clients_.end()) return;
  }
}

std::string Daemon::handle_admin_command(const std::string& raw) {
  auto trim = [](std::string s) {
    const auto b = s.find_first_not_of(" \t\r");
    const auto e = s.find_last_not_of(" \t\r");
    return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
  };
  const std::string line = trim(raw);
  try {
    if (line == "STATUS") {
      std::string out = "version " + std::to_string(svc::protocol_version()) +
                        "\nport " + std::to_string(tcp_port()) + "\nworkers " +
                        std::to_string(workers_.size()) + "\n";
      for (const auto& [key, w] : workers_) {
        out += "worker " + std::to_string(key) +
               " pid=" + std::to_string(w.pid) +
               (w.inflight ? " busy" : " idle") + "\n";
      }
      for (const CampaignStatus& s : status()) {
        out += "campaign " + std::to_string(s.id) + " " +
               state_name(s.state) + " done=" + std::to_string(s.units_done) +
               "/" + std::to_string(s.unit_count) +
               " digest=" + hex64(s.digest) + "\n";
      }
      return out + "OK\n";
    }
    if (line.rfind("SUBMIT ", 0) == 0) {
      // SUBMIT trials=8 ; unit_trials=2 ; topology = clique ; size = 5 ...
      // Semicolons separate what a scenario file would hold on lines;
      // trials / unit_trials configure the campaign itself.
      svc::CampaignSpec spec;
      spec.run.trials = 1;
      std::string scenario_text;
      std::stringstream parts{line.substr(7)};
      std::string part;
      while (std::getline(parts, part, ';')) {
        const std::string entry = trim(part);
        if (entry.empty()) continue;
        const std::size_t eq = entry.find('=');
        const std::string key =
            eq == std::string::npos ? entry : trim(entry.substr(0, eq));
        if (eq != std::string::npos && key == "trials") {
          spec.run.trials = std::stoul(trim(entry.substr(eq + 1)));
        } else if (eq != std::string::npos && key == "unit_trials") {
          spec.unit_trials = std::stoul(trim(entry.substr(eq + 1)));
        } else {
          scenario_text += entry + "\n";
        }
      }
      spec.scenarios.push_back(core::parse_scenario_string(scenario_text));
      const std::uint64_t id = submit(std::move(spec));
      return "OK id=" + std::to_string(id) + "\n";
    }
    if (line.rfind("CANCEL ", 0) == 0) {
      const std::uint64_t id = std::stoull(trim(line.substr(7)));
      return cancel(id) ? "OK\n"
                        : "ERR unknown or already-finished campaign " +
                              std::to_string(id) + "\n";
    }
    return "ERR unknown command (expected STATUS, SUBMIT, or CANCEL)\n";
  } catch (const std::exception& e) {
    std::string msg = e.what();
    std::replace(msg.begin(), msg.end(), '\n', ' ');
    return "ERR " + msg + "\n";
  }
}

void Daemon::run() {
  dispatch();
  maybe_exit_idle();
  if (options_.exit_when_idle && any_submitted_ &&
      active_campaign() == nullptr) {
    // Everything already terminal (e.g. resumed a sealed journal).
    shutdown_workers();
    return;
  }
  check_progress_possible();
  if (fatal_error_.empty()) loop_.run();
  shutdown_workers();
  if (!fatal_error_.empty()) {
    throw std::runtime_error{std::exchange(fatal_error_, {})};
  }
}

void Daemon::shutdown_workers() {
  // Tell every worker first, so they exit in parallel, then reap each.
  for (auto& [key, w] : workers_) {
    (void)w.conn.send_frame(svc::encode_shutdown());
    if (w.lease_timer != 0) loop_.cancel_timer(w.lease_timer);
    loop_.unwatch(w.conn_token);
    w.conn.close();
  }
  for (auto& [key, w] : workers_) {
    if (w.pid > 0) reap(w.pid);
    if (w.stderr_fd >= 0) relay_stderr(w, /*closing=*/true);
  }
  workers_.clear();
}

svc::CampaignResult run_journaled_campaign(const svc::CampaignSpec& spec,
                                           const std::string& journal_path,
                                           const JournaledRunOptions& options) {
  DaemonOptions dopts;
  dopts.journal_path = journal_path;
  dopts.deadline_s = options.deadline_s;
  dopts.max_attempts = options.max_attempts;
  dopts.results = options.results;
  dopts.exit_when_idle = true;
  dopts.on_unit_done = options.on_unit_done;
  Daemon daemon{std::move(dopts)};
  const std::uint64_t id = daemon.submit(spec);
  const std::size_t workers =
      options.workers == 0 ? core::default_jobs() : options.workers;
  for (std::size_t i = 0; i < workers; ++i) daemon.spawn_fork_worker();
  daemon.run();
  return daemon.take_result(id);
}

svc::CampaignResult resume_journaled_campaign(
    const std::string& journal_path, const JournaledRunOptions& options) {
  DaemonOptions dopts;
  dopts.resume_path = journal_path;
  dopts.deadline_s = options.deadline_s;
  dopts.max_attempts = options.max_attempts;
  dopts.results = options.results;
  dopts.exit_when_idle = true;
  dopts.on_unit_done = options.on_unit_done;
  Daemon daemon{std::move(dopts)};
  const std::vector<Daemon::CampaignStatus> statuses = daemon.status();
  if (statuses.empty()) {
    throw snap::FormatError{"svcd journal: " + journal_path +
                            " holds no campaign to resume"};
  }
  const bool anything_left =
      std::any_of(statuses.begin(), statuses.end(), [](const auto& s) {
        return s.state == Daemon::CampaignState::kQueued ||
               s.state == Daemon::CampaignState::kRunning;
      });
  if (anything_left) {
    const std::size_t workers =
        options.workers == 0 ? core::default_jobs() : options.workers;
    for (std::size_t i = 0; i < workers; ++i) daemon.spawn_fork_worker();
  }
  daemon.run();
  return daemon.take_result(statuses.front().id);
}

}  // namespace bgpsim::svcd
