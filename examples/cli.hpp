// Shared flag parsing for the example CLIs.
//
// Every example binary used to carry its own copy of the same argv loop:
// a `value()` helper that exits through usage() when a flag's operand is
// missing, plus an if/else chain over the scenario-shaping flags. Args is
// that loop as a cursor, and apply_scenario_flag() is the shared chain —
// a CLI handles its own flags first (or asks apply_scenario_flag to try)
// and calls fail() for anything left over.
//
//   cli::Args args{argc, argv, usage};
//   while (args.next()) {
//     if (cli::apply_scenario_flag(args, scenario)) continue;
//     if (args.arg() == "--trials") trials = args.value_size();
//     else args.fail();
//   }
//
// Numeric operands are parsed strictly: trailing garbage ("10x") exits
// through usage() instead of being silently truncated.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/scenario.hpp"
#include "core/scenario_file.hpp"
#include "sim/time.hpp"

namespace bgpsim::cli {

/// Cursor over argv. next() advances to each flag in turn; value() and
/// the typed variants consume the flag's operand. Malformed input exits
/// the process through the usage handler, which must not return (it
/// should print and std::exit(2)).
class Args {
 public:
  using UsageFn = void (*)(const char* argv0);

  Args(int argc, char** argv, UsageFn usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// Advance to the next flag. False once argv is exhausted.
  bool next() {
    if (i_ + 1 >= argc_) return false;
    arg_ = argv_[++i_];
    return true;
  }

  /// The flag next() stopped on.
  [[nodiscard]] const std::string& arg() const { return arg_; }

  /// Consume the current flag's operand; exits via usage if missing.
  const char* value() {
    if (i_ + 1 >= argc_) fail();
    return argv_[++i_];
  }

  /// The next token without consuming it; nullptr at the end of argv.
  /// For flags with an *optional* operand (bgpsimd --listen [PORT]).
  [[nodiscard]] const char* peek() const {
    return i_ + 1 >= argc_ ? nullptr : argv_[i_ + 1];
  }

  /// value() parsed as a non-negative integer; exits on garbage.
  std::size_t value_size() {
    return static_cast<std::size_t>(value_u64());
  }

  std::uint64_t value_u64() {
    const char* v = value();
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0') fail();
    return parsed;
  }

  double value_double() {
    const char* v = value();
    char* end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0') fail();
    return parsed;
  }

  /// Exit through the usage handler (unknown flag, bad operand).
  [[noreturn]] void fail() const {
    usage_(argv_[0]);
    std::abort();  // unreachable: the usage handler exits
  }

 private:
  int argc_;
  char** argv_;
  UsageFn usage_;
  int i_ = 0;
  std::string arg_;
};

/// The scenario-shaping flags shared by run_scenario and run_campaign,
/// for splicing into a usage string.
inline constexpr const char* kScenarioUsage =
    "[--file SCENARIO] "
    "[--topo clique|bclique|chain|ring|internet|asgraph|relfile] "
    "[--size N] [--rel-file PATH] [--event tdown|tlong|tup|flap] "
    "[--proto bgp|ssld|wrate|assertion|ghost] [--mrai SECONDS] [--seed S] "
    "[--policy] [--prefixes P] [--max-sim-time SECONDS]";

/// Try the current flag against the shared scenario flags; true when it
/// was one of them (operand consumed, `s` updated). --file replaces the
/// whole scenario, so it must precede any flag it should not override.
/// --seed seeds both the trial RNG and the topology generator, matching
/// every CLI's historical behavior.
inline bool apply_scenario_flag(Args& a, core::Scenario& s) {
  const std::string& arg = a.arg();
  if (arg == "--file") {
    s = core::load_scenario_file(a.value());
  } else if (arg == "--topo") {
    const std::string v = a.value();
    if (v == "clique") s.topology.kind = core::TopologyKind::kClique;
    else if (v == "bclique") s.topology.kind = core::TopologyKind::kBClique;
    else if (v == "chain") s.topology.kind = core::TopologyKind::kChain;
    else if (v == "ring") s.topology.kind = core::TopologyKind::kRing;
    else if (v == "internet") s.topology.kind = core::TopologyKind::kInternet;
    else if (v == "asgraph") s.topology.kind = core::TopologyKind::kAsGraph;
    else if (v == "relfile") s.topology.kind = core::TopologyKind::kRelFile;
    else a.fail();
  } else if (arg == "--size") {
    s.topology.size = a.value_size();
  } else if (arg == "--rel-file") {
    s.topology.kind = core::TopologyKind::kRelFile;
    s.topology.rel_file = a.value();
  } else if (arg == "--event") {
    const std::string v = a.value();
    if (v == "tdown") s.event = core::EventKind::kTdown;
    else if (v == "tlong") s.event = core::EventKind::kTlong;
    else if (v == "tup") s.event = core::EventKind::kTup;
    else if (v == "flap") s.event = core::EventKind::kFlap;
    else a.fail();
  } else if (arg == "--proto") {
    const std::string v = a.value();
    if (v == "bgp") s.bgp = s.bgp.with(bgp::Enhancement::kStandard);
    else if (v == "ssld") s.bgp = s.bgp.with(bgp::Enhancement::kSsld);
    else if (v == "wrate") s.bgp = s.bgp.with(bgp::Enhancement::kWrate);
    else if (v == "assertion") s.bgp = s.bgp.with(bgp::Enhancement::kAssertion);
    else if (v == "ghost") s.bgp = s.bgp.with(bgp::Enhancement::kGhostFlushing);
    else a.fail();
  } else if (arg == "--mrai") {
    s.bgp.mrai = sim::SimTime::seconds(a.value_double());
  } else if (arg == "--seed") {
    s.seed = a.value_u64();
    s.topology.topo_seed = s.seed;
  } else if (arg == "--policy") {
    s.policy_routing = true;
  } else if (arg == "--prefixes") {
    s.prefixes = a.value_size();
    if (s.prefixes == 0) a.fail();
  } else if (arg == "--max-sim-time") {
    s.max_sim_time = sim::SimTime::seconds(a.value_double());
  } else {
    return false;
  }
  return true;
}

}  // namespace bgpsim::cli
