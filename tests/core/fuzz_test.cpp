// The fuzzer's failure report: its replay line must rebuild the failing
// scenario, so it repeats the flags that shaped it.
#include "core/fuzz.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "check/invariant.hpp"
#include "check/oracle.hpp"

namespace bgpsim::core {
namespace {

/// Fires on every installed route, so every iteration fails.
class AlwaysFires final : public check::Invariant {
 public:
  [[nodiscard]] std::string_view name() const override { return "canary"; }
  void on_route_installed(net::NodeId node, net::Prefix,
                          const std::optional<bgp::AsPath>&,
                          sim::SimTime at) override {
    report(at, node, "canary");
  }
};

FuzzOptions failing_options() {
  FuzzOptions options;
  options.iters = 1;
  options.make_oracle = [] {
    check::Oracle oracle;
    oracle.add(std::make_unique<AlwaysFires>());
    return oracle;
  };
  return options;
}

std::string replay_line(const FuzzFailure& failure) {
  const std::string report = failure.to_string();
  const std::size_t at = report.find("replay: ");
  return at == std::string::npos ? std::string{} : report.substr(at);
}

TEST(FuzzReplayHint, MultiPrefixFailureRepeatsTheFlag) {
  FuzzOptions options = failing_options();
  options.multiprefix = true;
  const FuzzReport report = run_fuzz(options);
  ASSERT_EQ(report.failures.size(), 1u);
  const FuzzFailure& failure = report.failures.front();
  EXPECT_TRUE(failure.multiprefix);
  EXPECT_EQ(replay_line(failure),
            "replay: fuzz_scenarios --replay " +
                std::to_string(failure.scenario_seed) + " --multiprefix");

  // The printed line replays the same failure.
  const auto replayed = replay_fuzz_scenario(failure.scenario_seed, options);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->label, failure.label);
  EXPECT_EQ(replay_line(*replayed), replay_line(failure));
}

TEST(FuzzReplayHint, PolicyAndClassicFailures) {
  FuzzOptions policy = failing_options();
  policy.policy = true;
  policy.multiprefix = true;
  const FuzzReport both = run_fuzz(policy);
  ASSERT_EQ(both.failures.size(), 1u);
  EXPECT_NE(replay_line(both.failures.front()).find(" --policy --multiprefix"),
            std::string::npos);

  const FuzzReport classic = run_fuzz(failing_options());
  ASSERT_EQ(classic.failures.size(), 1u);
  EXPECT_EQ(replay_line(classic.failures.front()),
            "replay: fuzz_scenarios --replay " +
                std::to_string(classic.failures.front().scenario_seed));
}

}  // namespace
}  // namespace bgpsim::core
