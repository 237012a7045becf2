// svcd::Daemon end-to-end: journaled one-shot campaigns digest-identical
// to the serial runner, FIFO multi-campaign queueing, worker churn (fork
// workers killed mid-campaign, TCP workers joining mid-campaign, protocol
// violators), the admin socket, and the permanent-failure contract
// (CampaignError with precise per-unit records).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_file.hpp"
#include "core/sweep.hpp"
#include "svc/coordinator.hpp"
#include "svc/transport.hpp"
#include "svc/units.hpp"
#include "svc/worker.hpp"
#include "svcd/daemon.hpp"
#include "svcd/journal.hpp"

namespace bgpsim::svcd {
namespace {

core::Scenario clique(std::size_t size) {
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = size;
  s.event = core::EventKind::kTdown;
  s.seed = 11;
  return s;
}

svc::CampaignSpec small_sweep() {
  svc::CampaignSpec spec;
  spec.scenarios = {clique(5), clique(6)};
  spec.run.trials = 4;
  spec.unit_trials = 1;
  return spec;
}

std::uint64_t serial_digest(const svc::CampaignSpec& spec) {
  std::vector<core::TrialSet> sets;
  for (const core::Scenario& s : spec.scenarios) {
    sets.push_back(core::run_trials(s, spec.run));
  }
  return svc::campaign_digest(sets);
}

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + "svcd_daemon_" + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

TEST(SvcdDaemonTest, JournaledRunMatchesSerialAndResumesSealed) {
  const svc::CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);
  const std::string journal = temp_path("jnl");
  std::remove(journal.c_str());

  JournaledRunOptions opts;
  opts.workers = 3;
  const svc::CampaignResult result =
      run_journaled_campaign(spec, journal, opts);
  EXPECT_EQ(result.digest, expected);
  EXPECT_EQ(result.units_dispatched, 8u);

  // The journal holds every completion and the seal.
  const JournalReplay replay = replay_journal(journal);
  ASSERT_EQ(replay.campaigns.size(), 1u);
  EXPECT_TRUE(replay.campaigns[0].sealed);
  EXPECT_EQ(replay.campaigns[0].sealed_digest, expected);
  EXPECT_EQ(replay.campaigns[0].completed.size(), 8u);

  // Resuming a sealed journal re-runs nothing and returns the same bytes.
  const svc::CampaignResult resumed = resume_journaled_campaign(journal, {});
  EXPECT_EQ(resumed.digest, expected);
  EXPECT_EQ(resumed.units_dispatched, 0u);
  std::remove(journal.c_str());
}

TEST(SvcdDaemonTest, MultiCampaignFifoQueue) {
  const svc::CampaignSpec first = small_sweep();
  svc::CampaignSpec second;
  second.scenarios = {clique(7)};
  second.run.trials = 3;

  DaemonOptions options;
  options.exit_when_idle = true;
  Daemon daemon{std::move(options)};
  daemon.spawn_fork_worker();
  daemon.spawn_fork_worker();
  const std::uint64_t id1 = daemon.submit(first);
  const std::uint64_t id2 = daemon.submit(second);
  EXPECT_NE(id1, id2);
  daemon.run();

  const svc::CampaignResult r1 = daemon.take_result(id1);
  const svc::CampaignResult r2 = daemon.take_result(id2);
  EXPECT_EQ(r1.digest, serial_digest(first));
  EXPECT_EQ(r2.digest, serial_digest(second));
  for (const Daemon::CampaignStatus& s : daemon.status()) {
    EXPECT_EQ(s.state, Daemon::CampaignState::kDone);
    EXPECT_EQ(s.units_done, s.unit_count);
  }
}

TEST(SvcdDaemonTest, WorkerKilledMidCampaignStillMatchesSerial) {
  const svc::CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);

  DaemonOptions options;
  options.exit_when_idle = true;
  bool killed = false;
  options.on_unit_done = [&](Daemon& d, std::uint64_t, std::size_t) {
    if (killed) return;
    killed = true;
    const std::vector<pid_t> pids = d.worker_pids();
    ASSERT_FALSE(pids.empty());
    ::kill(pids[0], SIGKILL);
  };
  Daemon daemon{std::move(options)};
  daemon.spawn_fork_worker();
  daemon.spawn_fork_worker();
  daemon.spawn_fork_worker();
  const std::uint64_t id = daemon.submit(spec);
  daemon.run();

  EXPECT_TRUE(killed);
  EXPECT_EQ(daemon.take_result(id).digest, expected);
}

TEST(SvcdDaemonTest, TcpWorkerJoinsMidCampaign) {
  const svc::CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);

  DaemonOptions options;
  options.exit_when_idle = true;
  options.tcp_listen = true;
  pid_t joiner = -1;
  options.on_unit_done = [&](Daemon& d, std::uint64_t, std::size_t) {
    if (joiner != -1) return;
    const std::uint16_t port = d.tcp_port();
    joiner = ::fork();
    ASSERT_GE(joiner, 0);
    if (joiner == 0) {
      svc::Connection conn = svc::connect_localhost(port);
      ::_exit(svc::worker_loop(std::move(conn), 99));
    }
  };
  Daemon daemon{std::move(options)};
  daemon.spawn_fork_worker();
  const std::uint64_t id = daemon.submit(spec);
  daemon.run();

  ASSERT_GT(joiner, 0);
  // run() shut the joiner down with a kShutdown frame: clean exit 0.
  int status = 0;
  ASSERT_EQ(::waitpid(joiner, &status, 0), joiner);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(daemon.take_result(id).digest, expected);
}

TEST(SvcdDaemonTest, ProtocolViolatorIsFailedAndCampaignCompletes) {
  // An impostor joins over TCP and speaks a future protocol version. The
  // daemon must fail that connection with a precise protocol error,
  // requeue any unit it held, and finish the campaign on the real worker.
  const svc::CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);

  DaemonOptions options;
  options.exit_when_idle = true;
  options.tcp_listen = true;
  pid_t impostor = -1;
  options.on_unit_done = [&](Daemon& d, std::uint64_t, std::size_t) {
    if (impostor != -1) return;
    const std::uint16_t port = d.tcp_port();
    impostor = ::fork();
    ASSERT_GE(impostor, 0);
    if (impostor == 0) {
      svc::Connection conn = svc::connect_localhost(port);
      svc::Hello hello;
      hello.worker_id = 66;
      hello.pid = static_cast<std::uint64_t>(::getpid());
      // A well-formed Hello stamped with a future protocol version.
      const std::vector<std::uint8_t> bytes =
          svc::encode_frame(svc::encode_hello(hello),
                            svc::kProtocolVersion + 1);
      (void)!::write(conn.fd(), bytes.data(), bytes.size());
      // Linger until the daemon hangs up on us.
      (void)conn.recv_frame();
      ::_exit(0);
    }
  };
  Daemon daemon{std::move(options)};
  daemon.spawn_fork_worker();
  const std::uint64_t id = daemon.submit(spec);
  daemon.run();

  ASSERT_GT(impostor, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(impostor, &status, 0), impostor);
  EXPECT_EQ(daemon.take_result(id).digest, expected);
}

TEST(SvcdDaemonTest, DeterministicUnitFailureYieldsCampaignError) {
  svc::CampaignSpec spec;
  core::Scenario s = clique(8);
  s.max_sim_time = sim::SimTime::seconds(1);  // cannot converge in time
  spec.scenarios = {s};
  spec.run.trials = 2;
  spec.unit_trials = 2;

  DaemonOptions options;
  options.exit_when_idle = true;
  Daemon daemon{std::move(options)};
  daemon.spawn_fork_worker();
  const std::uint64_t id = daemon.submit(spec);
  daemon.run();

  ASSERT_EQ(daemon.status().size(), 1u);
  EXPECT_EQ(daemon.status()[0].state, Daemon::CampaignState::kFailed);
  try {
    (void)daemon.take_result(id);
    FAIL() << "take_result of a failed campaign must throw CampaignError";
  } catch (const svc::CampaignError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    const svc::UnitFailure& f = e.failures()[0];
    EXPECT_EQ(f.unit_id, 0u);
    EXPECT_EQ(f.trial_count, 2u);
    EXPECT_EQ(f.attempts, 1u);  // deterministic failures are not retried
    EXPECT_NE(f.last_error.find("reported"), std::string::npos)
        << f.last_error;
    EXPECT_NE(std::string{e.what()}.find("failed permanently"),
              std::string::npos)
        << e.what();
  }
}

TEST(SvcdDaemonTest, AttemptCapAbandonsUnitWithPreciseFailure) {
  // Satellite regression: a unit whose every attempt dies (here: a lease
  // far shorter than the unit's runtime kills each holder in turn) is
  // abandoned after max_attempts with a precise per-unit failure record —
  // not retried forever, not reported as a bare worker loss.
  svc::CampaignSpec spec;
  spec.scenarios = {clique(16)};
  spec.run.trials = 4;
  spec.unit_trials = 4;  // one unit holding every trial

  DaemonOptions options;
  options.exit_when_idle = true;
  options.deadline_s = 0.02;
  options.max_attempts = 3;
  Daemon daemon{std::move(options)};
  daemon.spawn_fork_worker();
  daemon.spawn_fork_worker();
  daemon.spawn_fork_worker();
  const std::uint64_t id = daemon.submit(spec);
  daemon.run();

  try {
    (void)daemon.take_result(id);
    FAIL() << "abandoned unit must fail the campaign";
  } catch (const svc::CampaignError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    const svc::UnitFailure& f = e.failures()[0];
    EXPECT_EQ(f.unit_id, 0u);
    EXPECT_EQ(f.attempts, 3u);
    EXPECT_NE(f.to_string().find("failed after 3 attempt(s)"),
              std::string::npos)
        << f.to_string();
    EXPECT_NE(f.last_error.find("lease"), std::string::npos) << f.last_error;
  }
}

TEST(SvcdDaemonTest, RunJournaledCampaignPropagatesCampaignError) {
  svc::CampaignSpec spec;
  core::Scenario s = clique(8);
  s.max_sim_time = sim::SimTime::seconds(1);
  spec.scenarios = {s};
  spec.run.trials = 2;
  const std::string journal = temp_path("failjnl");
  std::remove(journal.c_str());
  JournaledRunOptions opts;
  opts.workers = 2;
  EXPECT_THROW((void)run_journaled_campaign(spec, journal, opts),
               svc::CampaignError);
  std::remove(journal.c_str());
}

// ---- admin socket -------------------------------------------------------

/// Send one command line, read until the OK/ERR terminator line.
std::string admin_roundtrip(const std::string& sock_path,
                            const std::string& command) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0)
      << sock_path;
  const std::string line = command + "\n";
  EXPECT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  std::string response;
  for (;;) {
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
    // Terminated once the last complete line starts with OK or ERR.
    const std::size_t last_nl = response.rfind('\n');
    if (last_nl == std::string::npos) continue;
    const std::size_t prev_nl = response.rfind('\n', last_nl - 1);
    const std::string last = response.substr(
        prev_nl == std::string::npos ? 0 : prev_nl + 1,
        last_nl - (prev_nl == std::string::npos ? 0 : prev_nl + 1));
    if (last.rfind("OK", 0) == 0 || last.rfind("ERR", 0) == 0) break;
  }
  ::close(fd);
  return response;
}

TEST(SvcdDaemonTest, AdminSocketStatusSubmitCancel) {
  const std::string sock = temp_path("sock");
  std::remove(sock.c_str());

  DaemonOptions options;
  options.exit_when_idle = true;
  options.admin_socket = sock;
  Daemon daemon{std::move(options)};
  daemon.spawn_fork_worker();
  daemon.spawn_fork_worker();

  std::string status_first;
  std::string submit1;
  std::string submit2;
  std::string cancel_bogus;
  std::string cancel2;
  std::thread client{[&] {
    status_first = admin_roundtrip(sock, "STATUS");
    submit1 = admin_roundtrip(
        sock, "SUBMIT trials=4; topology=clique; size=9; event=tdown; seed=11");
    submit2 = admin_roundtrip(
        sock, "SUBMIT trials=2; topology=clique; size=5; event=tdown; seed=11");
    cancel_bogus = admin_roundtrip(sock, "CANCEL 99");
    cancel2 = admin_roundtrip(sock, "CANCEL 2");
  }};
  daemon.run();
  client.join();

  EXPECT_NE(status_first.find("workers 2"), std::string::npos) << status_first;
  EXPECT_NE(status_first.find("version " +
                              std::to_string(svc::kProtocolVersion)),
            std::string::npos)
      << status_first;
  EXPECT_NE(submit1.find("OK id=1"), std::string::npos) << submit1;
  EXPECT_NE(submit2.find("OK id=2"), std::string::npos) << submit2;
  EXPECT_EQ(cancel_bogus.rfind("ERR", 0), 0u) << cancel_bogus;
  EXPECT_EQ(cancel2.rfind("OK", 0), 0u) << cancel2;

  // Campaign 1 ran to completion with the serial digest; 2 was cancelled.
  svc::CampaignSpec spec;
  spec.scenarios = {core::parse_scenario_string(
      "topology=clique\nsize=9\nevent=tdown\nseed=11\n")};
  spec.run.trials = 4;
  EXPECT_EQ(daemon.take_result(1).digest, serial_digest(spec));
  bool saw_cancelled = false;
  for (const Daemon::CampaignStatus& s : daemon.status()) {
    if (s.id == 2) {
      saw_cancelled = true;
      EXPECT_EQ(s.state, Daemon::CampaignState::kCancelled);
    }
  }
  EXPECT_TRUE(saw_cancelled);
  EXPECT_FALSE(daemon.cancel(1));  // terminal campaigns cannot be cancelled
  std::remove(sock.c_str());
}

}  // namespace
}  // namespace bgpsim::svcd
