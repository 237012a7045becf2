// Exec-spawned workers: the real bgpsim_worker binary behind the
// coordinator. Its stderr must reach the coordinator's stderr line by
// line with a "[worker N] " prefix — also the last lines of a worker that
// dies — and TCP-spawned workers must be told distinct ids, so a caller
// can map each Hello back to the pid it was spawned as.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "svc/coordinator.hpp"
#include "svc/protocol.hpp"
#include "svc/transport.hpp"

#ifndef BGPSIM_WORKER_BIN
#error "BGPSIM_WORKER_BIN must name the bgpsim_worker binary"
#endif

namespace bgpsim::svc {
namespace {

CampaignSpec small_sweep() {
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = 5;
  s.event = core::EventKind::kTdown;
  s.seed = 11;
  CampaignSpec spec;
  spec.scenarios = {s};
  spec.run.trials = 4;
  return spec;
}

std::uint64_t serial_digest(const CampaignSpec& spec) {
  return campaign_digest({core::run_trials(spec.scenarios[0], spec.run)});
}

/// Writes an executable shell script running `body` and returns its path.
std::string write_script(const std::string& stem, const std::string& body) {
  const std::string path =
      ::testing::TempDir() + "svc_exec_" + stem + "_" +
      std::to_string(static_cast<long long>(::getpid())) + ".sh";
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return path;
  std::fprintf(f, "#!/bin/sh\n%s\n", body.c_str());
  std::fclose(f);
  ::chmod(path.c_str(), 0755);
  return path;
}

TEST(SvcExecWorkerTest, StderrIsRelayedWithTheWorkerPrefix) {
  const CampaignSpec spec = small_sweep();
  const std::uint64_t expected = serial_digest(spec);
  // Worker 0 says its last words, the last of them without a trailing
  // newline, then corrupts its stream and hangs with its stderr still
  // open: only the coordinator's kill ends it, so that tail can only get
  // out through the relay's drain of a dying worker. Worker 1 says hello
  // and then serves as the real bgpsim_worker.
  const std::string dying = write_script(
      "dying",
      "printf 'last words\\nno newline' >&2; head -c 32 /dev/zero >&0; "
      "exec sleep 30");
  const std::string chatty = write_script(
      "chatty", "echo \"hello from $4\" >&2; exec '" BGPSIM_WORKER_BIN "' \"$@\"");

  ::testing::internal::CaptureStderr();
  CampaignResult result;
  {
    Coordinator coordinator{spec};
    coordinator.spawn_exec_worker(dying);
    coordinator.spawn_exec_worker(chatty);
    result = coordinator.run();
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  std::remove(dying.c_str());
  std::remove(chatty.c_str());

  EXPECT_EQ(result.digest, expected);
  EXPECT_EQ(result.workers_lost, 1u);
  EXPECT_NE(err.find("[worker 0] last words\n"), std::string::npos) << err;
  EXPECT_NE(err.find("[worker 0] no newline\n"), std::string::npos) << err;
  EXPECT_NE(err.find("[worker 1] hello from 1\n"), std::string::npos) << err;
}

TEST(SvcExecWorkerTest, TcpSpawnsGetDistinctIds) {
  const CampaignSpec spec = small_sweep();
  auto listener = TcpListener::bind_localhost(0);
  Coordinator coordinator{spec};
  std::vector<pid_t> pids;
  for (int i = 0; i < 2; ++i) {
    pids.push_back(
        coordinator.spawn_exec_worker_tcp(BGPSIM_WORKER_BIN, listener.port()));
  }
  std::vector<bool> seen(pids.size(), false);
  for (std::size_t i = 0; i < pids.size(); ++i) {
    Connection conn = listener.accept_one(30'000);
    ASSERT_TRUE(conn.valid()) << "worker did not connect";
    const std::optional<Frame> frame = conn.recv_frame();
    ASSERT_TRUE(frame.has_value());
    const Hello hello = decode_hello(*frame);
    ASSERT_LT(hello.worker_id, pids.size());
    EXPECT_FALSE(seen[hello.worker_id]) << "id " << hello.worker_id;
    seen[hello.worker_id] = true;
    EXPECT_EQ(hello.pid, static_cast<std::uint64_t>(pids[hello.worker_id]));
    coordinator.add_worker(std::move(conn), pids[hello.worker_id], -1);
  }
  EXPECT_EQ(coordinator.run().digest, serial_digest(spec));
}

}  // namespace
}  // namespace bgpsim::svc
