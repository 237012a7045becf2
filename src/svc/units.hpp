// The campaign unit ledger: one campaign's (scenario, trial-range) work
// units as a dispatchable, fault-tolerant, resumable state machine.
//
// The svcd daemon (src/svcd/) drives one ledger per campaign through
// worker *churn* — workers joining and dying mid-campaign — so the ledger
// is keyed by opaque 64-bit worker keys. A key is one worker incarnation:
// a worker that dies and a worker that joins later never share a key,
// which is what makes the exclusion sets (a unit never retries on a
// worker that already failed it) churn-tolerant.
//
// Determinism contract: the ledger only routes and merges. Trial outcomes
// land in per-trial slots keyed by (scenario index, trial index), and
// assemble() feeds them through core::assemble_trials — the same
// aggregation code as the in-process runners — so the final TrialSets are
// bit-identical to core::run_trials no matter which workers ran what, in
// what order, with how many retries, or across how many crash/resume
// cycles (completed units restored from a journal merge through the very
// same slot path).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "svc/protocol.hpp"

namespace bgpsim::svc {

/// What to run: a sweep of scenarios, each repeated run.trials times with
/// the run_trials seed layout. unit_trials sets work-unit granularity
/// (trials per unit; smaller units steal better, larger units amortize
/// dispatch and share prelude-cache hits within a worker).
///
/// `run` is the same core::RunOptions the in-process runners take; the
/// campaign machinery consumes run.trials directly and uses the full
/// struct for serial cross-checks (run_campaign --check-serial replays the
/// campaign through core::run_trials(s, spec.run)). Fields that configure
/// *in-process* execution (jobs, snap_cache, trace, oracle) do not
/// travel to worker processes — workers follow their own environment
/// defaults — which is safe precisely because every one of
/// those knobs is output-invariant (digests are bit-identical regardless).
struct CampaignSpec {
  std::vector<core::Scenario> scenarios;
  core::RunOptions run;
  std::size_t unit_trials = 1;
};

/// One unit that permanently failed: it exhausted its attempt cap across
/// distinct workers, or a worker reported a deterministic in-driver error.
struct UnitFailure {
  std::uint64_t unit_id = 0;
  std::uint64_t scenario_index = 0;
  std::uint64_t trial_begin = 0;
  std::uint64_t trial_count = 0;
  std::size_t attempts = 0;
  std::string last_error;

  /// "unit 3 (scenario 1, trials [2, 3)) failed after 3 attempt(s): ..."
  [[nodiscard]] std::string to_string() const;
};

/// A campaign that cannot complete. what() is the full multi-line report
/// (headline plus one UnitFailure::to_string() line per failed unit);
/// failures() carries the same records structured, so callers can report
/// a precise per-unit summary and a non-zero exit code instead of relying
/// on exception text alone.
class CampaignError : public std::runtime_error {
 public:
  CampaignError(const std::string& headline, std::vector<UnitFailure> failures);

  [[nodiscard]] const std::vector<UnitFailure>& failures() const {
    return failures_;
  }

 private:
  static std::string render(const std::string& headline,
                            const std::vector<UnitFailure>& failures);
  std::vector<UnitFailure> failures_;
};

/// What a completed campaign hands back.
struct CampaignResult {
  std::vector<core::TrialSet> sets;  // one per spec scenario, in order
  std::uint64_t digest = 0;          // svc::campaign_digest(sets)
  std::size_t units_dispatched = 0;  // includes requeues
  std::size_t requeues = 0;
  std::size_t workers_lost = 0;  // workers failed while the campaign ran
};

class UnitLedger {
 public:
  /// Decompose spec into (scenario, trial-range) units via
  /// core::decompose_trials; all start pending. max_attempts caps how many
  /// workers a unit may fail on before it is abandoned (recorded in
  /// failures(), never retried again).
  UnitLedger(CampaignSpec spec, std::size_t max_attempts);

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t unit_count() const { return units_.size(); }
  [[nodiscard]] std::size_t done() const { return done_; }
  [[nodiscard]] bool complete() const { return done_ == units_.size(); }
  /// True when no unit is in flight on any worker.
  [[nodiscard]] bool idle() const { return inflight_ == 0; }

  /// Pick the oldest pending unit `worker_key` is not excluded from, mark
  /// it in flight on that worker, and count the attempt. When every
  /// pending unit has already failed on this worker, an excluded retry is
  /// handed out only if nothing at all is in flight (no other worker is
  /// making progress, so a retry is the only move left — logged). Returns
  /// nullopt when there is nothing this worker can take right now.
  [[nodiscard]] std::optional<WorkUnit> acquire(std::uint64_t worker_key);

  /// The worker holding `unit_id` failed (died, blew its lease, corrupted
  /// its stream): release the unit with the worker excluded. kRequeued
  /// puts it at the front of the queue (a requeued unit is the oldest work
  /// there is); kAbandoned records a UnitFailure — the attempt cap is
  /// spent and the campaign cannot complete.
  enum class Release { kRequeued, kAbandoned, kAlreadyDone };
  Release release(std::uint64_t unit_id, std::uint64_t worker_key,
                  const std::string& why);

  /// A worker reported a deterministic in-driver error for `unit_id`
  /// (e.g. a convergence timeout). Experiment drivers are deterministic, so
  /// the throw would recur on every retry; the unit is abandoned
  /// immediately with the worker's message (serial-runner semantics).
  void fail_deterministic(std::uint64_t unit_id, const std::string& message);

  /// A result frame arrived. Throws snap::FormatError on an unknown unit
  /// id or a shape mismatch (wrong scenario/trial range/outcome count);
  /// kDuplicate means the unit already completed elsewhere (a late answer
  /// after a requeue — determinism makes both answers identical, so it is
  /// dropped). kMerged fills the unit's trial slots exactly once.
  enum class Accept { kMerged, kDuplicate };
  Accept accept(const UnitResult& result);

  /// Journal replay: mark a unit completed from a persisted UnitResult
  /// without counting a dispatch or an attempt. Validates like accept();
  /// duplicates are tolerated (replay idempotence).
  void restore_completed(const UnitResult& result);

  /// Assemble the final per-scenario TrialSets from the merged slots.
  /// Requires complete(); moves the outcomes out.
  [[nodiscard]] std::vector<core::TrialSet> assemble();

  /// Permanently failed units, in the order they were abandoned.
  [[nodiscard]] const std::vector<UnitFailure>& failures() const {
    return failures_;
  }

  /// Dispatch counters for campaign stats (dispatched includes requeues).
  [[nodiscard]] std::size_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::size_t requeues() const { return requeues_; }

  /// Trial range / scenario info of a unit (for failure reports).
  struct UnitInfo {
    std::uint64_t scenario_index = 0;
    std::uint64_t trial_begin = 0;
    std::uint64_t trial_count = 0;
    std::size_t attempts = 0;
  };
  [[nodiscard]] UnitInfo info(std::uint64_t unit_id) const;

 private:
  struct Unit {
    enum class State { kPending, kInflight, kDone };
    std::uint64_t scenario_index = 0;
    std::uint64_t trial_begin = 0;
    std::uint64_t trial_count = 0;
    State state = State::kPending;
    std::size_t attempts = 0;
    std::vector<std::uint64_t> excluded;  // worker keys that failed it
  };

  Unit& unit_for(std::uint64_t unit_id, const char* context);
  void mark_done(Unit& u, const UnitResult& result);

  CampaignSpec spec_;
  std::size_t max_attempts_;
  std::vector<Unit> units_;
  std::vector<std::size_t> pending_;  // unit indices awaiting dispatch
  std::size_t done_ = 0;
  std::size_t inflight_ = 0;
  std::size_t dispatched_ = 0;
  std::size_t requeues_ = 0;
  // merged_[scenario][trial]: outcome slots, filled exactly once per trial.
  std::vector<std::vector<core::ExperimentOutcome>> merged_;
  std::vector<UnitFailure> failures_;
};

}  // namespace bgpsim::svc
