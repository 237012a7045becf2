#include "core/env.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>
#include <system_error>

#include "sim/env.hpp"
#include "sim/thread_pool.hpp"

namespace bgpsim::core::env {

namespace {

constexpr Knob kRegistry[] = {
    {"BGPSIM_JOBS", "all cores",
     "worker threads per in-process run (run_trials fan-out); results are "
     "bit-identical at any job count"},
    {"BGPSIM_WORKERS", "BGPSIM_JOBS",
     "worker processes for run_campaign; campaign results are bit-identical "
     "at any worker count"},
    {"BGPSIM_TRIALS", "per bench", "trials per bench data point"},
    {"BGPSIM_FULL", "0", "1 = benches sweep the paper's full size range"},
    {"BGPSIM_CSV", "0", "1 = benches append CSV dumps after each table"},
    {"BGPSIM_JSON", "unset",
     "directory for BENCH_<bench>.json artifacts (schema bgpsim-bench-1)"},
    {"BGPSIM_FUZZ_ITERS", "100", "fuzz_scenarios default iteration count"},
    {"BGPSIM_SNAP_CACHE", "32",
     "prelude-cache capacity in snapshots; 0 disables warm-start caching"},
    {"BGPSIM_PREFIXES", "256",
     "prefix-count cap for the multi-prefix bench sweep; sweep points "
     "above the cap are skipped"},
    {"BGPSIM_POLICY_SIZES", "1000,10000",
     "comma-separated AS-graph node counts for the policy-scale bench; "
     "the default grows by 75000 under BGPSIM_FULL=1"},
    {"BGPSIM_JOURNAL_DIR", "unset",
     "directory where bgpsimd and run_campaign --journal place campaign "
     "journals when given a bare file name instead of a path"},
    {"BGPSIM_ADMIN_SOCK", "unset",
     "default unix-socket path for the bgpsimd admin interface "
     "(STATUS/SUBMIT/CANCEL), used by bgpsimd and campaign_ctl when "
     "--admin is not given"},
};

}  // namespace

std::span<const Knob> registry() { return kRegistry; }

std::size_t jobs() {
  return sim::env_u64_or("BGPSIM_JOBS", sim::ThreadPool::default_workers());
}

std::size_t workers() { return sim::env_u64_or("BGPSIM_WORKERS", jobs()); }

std::size_t trials(std::size_t fallback) {
  return sim::env_u64_or("BGPSIM_TRIALS", fallback);
}

bool full_run() { return sim::env_u64_or("BGPSIM_FULL", 0) != 0; }

bool csv() { return sim::env_u64_or("BGPSIM_CSV", 0) != 0; }

const char* json_dir() { return sim::env_raw("BGPSIM_JSON"); }

std::size_t fuzz_iters(std::size_t fallback) {
  return sim::env_u64_or("BGPSIM_FUZZ_ITERS", fallback);
}

std::size_t snap_cache_capacity() {
  return sim::env_u64_or("BGPSIM_SNAP_CACHE", 32);
}

std::size_t prefixes_cap() {
  const std::size_t v = sim::env_u64_or("BGPSIM_PREFIXES", 256);
  return v == 0 ? 1 : v;
}

const char* journal_dir() { return sim::env_raw("BGPSIM_JOURNAL_DIR"); }

const char* admin_sock() { return sim::env_raw("BGPSIM_ADMIN_SOCK"); }

std::vector<std::size_t> policy_sizes() {
  std::vector<std::size_t> fallback{1000, 10000};
  if (full_run()) fallback.push_back(75000);
  const char* raw = sim::env_raw("BGPSIM_POLICY_SIZES");
  if (raw == nullptr) return fallback;
  std::vector<std::size_t> sizes;
  const std::string_view sv{raw};
  for (std::size_t pos = 0; pos <= sv.size();) {
    const std::size_t comma = std::min(sv.find(',', pos), sv.size());
    const std::string_view tok = sv.substr(pos, comma - pos);
    std::size_t value = 0;
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    if (ec != std::errc{} || end != tok.data() + tok.size() || value == 0) {
      std::fprintf(stderr,
                   "bgpsim: BGPSIM_POLICY_SIZES=\"%s\" is not a "
                   "comma-separated list of node counts; using the default\n",
                   raw);
      return fallback;
    }
    sizes.push_back(value);
    pos = comma + 1;
  }
  return sizes;
}

}  // namespace bgpsim::core::env
