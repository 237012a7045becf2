// svcd_smoke: end-to-end drill of the real binaries, registered as one
// CTest entry (label svcd).
//
//   usage: svcd_smoke <path-to-bgpsimd> <path-to-run_campaign>
//
// Phase 1 — the daemon: start bgpsimd with a journal, an admin socket,
// two fork workers, and a streaming results file; SUBMIT a campaign over
// the admin socket; once the first streamed unit line lands, SIGKILL one
// worker (churn mid-run); wait for the daemon's clean exit-when-idle;
// then check every streamed line is a bgpsim-bench-1 JSON object and the
// sealed campaign digest equals the in-process serial digest.
//
// Phase 2 — the failure contract: run_campaign with a lease far shorter
// than the unit runtime must exit non-zero after the 3-attempt cap, with
// a per-unit "failed after 3 attempt(s)" line on stderr.
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/scenario_file.hpp"
#include "core/sweep.hpp"
#include "svc/coordinator.hpp"

namespace {

int g_failures = 0;

#define SMOKE_CHECK(cond, msg)                                      \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "svcd_smoke: FAIL %s (%s:%d)\n", (msg),  \
                   __FILE__, __LINE__);                             \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

constexpr const char* kScenarioText =
    "topology = clique\nsize = 9\nevent = tdown\nseed = 11\n";
constexpr std::size_t kTrials = 6;

std::string admin_roundtrip(const std::string& sock_path,
                            const std::string& command) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return {};
  }
  const std::string line = command + "\n";
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line.size())) {
    ::close(fd);
    return {};
  }
  std::string response;
  for (;;) {
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
    const std::size_t last_nl = response.rfind('\n');
    if (last_nl == std::string::npos || last_nl == 0) continue;
    const std::size_t prev_nl = response.rfind('\n', last_nl - 1);
    const std::size_t begin = prev_nl == std::string::npos ? 0 : prev_nl + 1;
    const std::string last = response.substr(begin, last_nl - begin);
    if (last.rfind("OK", 0) == 0 || last.rfind("ERR", 0) == 0) break;
  }
  ::close(fd);
  return response;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// Wait for `pid` to exit, up to ~deadline_s; returns exit status or -1.
int wait_with_timeout(pid_t pid, int deadline_s) {
  for (int i = 0; i < deadline_s * 100; ++i) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    ::usleep(10'000);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  (void)::waitpid(pid, &status, 0);
  return -1;
}

std::uint64_t serial_digest() {
  bgpsim::core::Scenario s =
      bgpsim::core::parse_scenario_string(kScenarioText);
  bgpsim::core::RunOptions run;
  run.trials = kTrials;
  std::vector<bgpsim::core::TrialSet> sets;
  sets.push_back(bgpsim::core::run_trials(s, run));
  return bgpsim::svc::campaign_digest(sets);
}

void phase1_daemon(const std::string& bgpsimd, const std::string& dir) {
  const std::string sock = dir + "/admin.sock";
  const std::string journal = dir + "/campaign.jnl";
  const std::string results = dir + "/results.jsonl";

  const pid_t daemon = ::fork();
  if (daemon == 0) {
    ::execl(bgpsimd.c_str(), bgpsimd.c_str(), "--journal", journal.c_str(),
            "--admin", sock.c_str(), "--workers", "2", "--results",
            results.c_str(), "--exit-when-idle", (char*)nullptr);
    std::perror("svcd_smoke: execl bgpsimd");
    ::_exit(127);
  }
  SMOKE_CHECK(daemon > 0, "fork for bgpsimd");

  // Wait for the admin socket to answer.
  std::string status;
  for (int i = 0; i < 500 && status.empty(); ++i) {
    ::usleep(10'000);
    status = admin_roundtrip(sock, "STATUS");
  }
  SMOKE_CHECK(!status.empty(), "daemon admin socket never came up");
  SMOKE_CHECK(status.find("workers 2") != std::string::npos,
              "STATUS reports both fork workers");

  // Submit over the admin socket, exactly as campaign_ctl would.
  const std::string submit = admin_roundtrip(
      sock,
      "SUBMIT trials=6; topology=clique; size=9; event=tdown; seed=11");
  SMOKE_CHECK(submit.find("OK id=1") != std::string::npos,
              "SUBMIT acknowledged with a campaign id");

  // Kill one worker as soon as the first streamed unit line lands.
  pid_t victim = -1;
  for (int i = 0; i < 1000 && victim < 0; ++i) {
    if (slurp(results).find("svcd_unit") == std::string::npos) {
      ::usleep(5'000);
      continue;
    }
    const std::string st = admin_roundtrip(sock, "STATUS");
    const std::size_t at = st.find(" pid=");
    if (at == std::string::npos) break;  // workers may already be gone
    victim = static_cast<pid_t>(std::atoi(st.c_str() + at + 5));
  }
  if (victim > 0) {
    ::kill(victim, SIGKILL);
  } else {
    // Campaign finished before a unit line was observed — digest check
    // below still validates the pipeline end to end.
    std::fprintf(stderr, "svcd_smoke: note: no worker killed (fast run)\n");
  }

  const int status_code = wait_with_timeout(daemon, 120);
  SMOKE_CHECK(status_code >= 0, "daemon exited before the timeout");
  SMOKE_CHECK(WIFEXITED(status_code) && WEXITSTATUS(status_code) == 0,
              "daemon exit-when-idle was clean");

  // Every streamed line parses as a bgpsim-bench-1 object; the campaign
  // line carries the serial digest.
  const std::string stream = slurp(results);
  std::size_t lines = 0;
  bool saw_campaign = false;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    std::size_t nl = stream.find('\n', pos);
    if (nl == std::string::npos) nl = stream.size();
    const std::string line = stream.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    ++lines;
    SMOKE_CHECK(line.rfind("{\"schema\": \"bgpsim-bench-1\"", 0) == 0,
                "streamed line is a bgpsim-bench-1 object");
    SMOKE_CHECK(line.back() == '}', "streamed line is a complete object");
    if (line.find("\"svcd_campaign\"") != std::string::npos) {
      saw_campaign = true;
      char expected_hex[32];
      std::snprintf(expected_hex, sizeof expected_hex, "%016llx",
                    static_cast<unsigned long long>(serial_digest()));
      SMOKE_CHECK(line.find(expected_hex) != std::string::npos,
                  "sealed campaign digest equals the serial digest");
    }
  }
  SMOKE_CHECK(lines == kTrials + 1,
              "one line per completed unit plus the campaign seal");
  SMOKE_CHECK(saw_campaign, "campaign seal line was streamed");
}

void phase2_failure_exit(const std::string& run_campaign,
                         const std::string& dir) {
  const std::string errfile = dir + "/failure.stderr";
  const pid_t child = ::fork();
  if (child == 0) {
    const int err = ::open(errfile.c_str(), O_CREAT | O_TRUNC | O_WRONLY,
                           0644);
    if (err >= 0) ::dup2(err, 2);
    ::execl(run_campaign.c_str(), run_campaign.c_str(), "--topo", "clique",
            "--size", "16", "--trials", "4", "--unit-trials", "4",
            "--workers", "3", "--fork", "--deadline-s", "0.02",
            (char*)nullptr);
    ::_exit(127);
  }
  SMOKE_CHECK(child > 0, "fork for run_campaign");
  const int status = wait_with_timeout(child, 120);
  SMOKE_CHECK(status >= 0, "run_campaign exited before the timeout");
  SMOKE_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 1,
              "permanent unit failure exits 1");
  const std::string err = slurp(errfile);
  SMOKE_CHECK(err.find("failed permanently") != std::string::npos,
              "stderr carries the failure headline");
  SMOKE_CHECK(err.find("failed after 3 attempt(s)") != std::string::npos,
              "stderr carries the per-unit attempt summary");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: svcd_smoke <bgpsimd-binary> <run_campaign-binary>\n");
    return 2;
  }
  char dir_template[] = "/tmp/svcd_smoke_XXXXXX";
  const char* dir_c = ::mkdtemp(dir_template);
  if (dir_c == nullptr) {
    std::perror("svcd_smoke: mkdtemp");
    return 2;
  }
  const std::string dir = dir_c;

  phase1_daemon(argv[1], dir);
  phase2_failure_exit(argv[2], dir);

  if (g_failures == 0) {
    std::printf("svcd_smoke: PASS\n");
  } else {
    std::printf("svcd_smoke: %d check(s) FAILED\n", g_failures);
  }
  return g_failures == 0 ? 0 : 1;
}
