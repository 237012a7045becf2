#include "svc/coordinator.hpp"

#include <stdexcept>
#include <utility>

namespace bgpsim::svc {
namespace {

svcd::DaemonOptions one_campaign(CampaignOptions options, Coordinator& self) {
  svcd::DaemonOptions d;
  d.deadline_s = options.deadline_s;
  d.max_attempts = options.max_attempts;
  d.exit_when_idle = true;
  if (options.on_unit_done) {
    d.on_unit_done = [&self, hook = std::move(options.on_unit_done)](
                         svcd::Daemon&, std::uint64_t, std::size_t done) {
      hook(self, done);
    };
  }
  return d;
}

}  // namespace

Coordinator::Coordinator(CampaignSpec spec, CampaignOptions options)
    : daemon_{one_campaign(std::move(options), *this)},
      campaign_id_{daemon_.submit(std::move(spec))} {}

CampaignResult Coordinator::run() {
  if (worker_count() == 0) {
    throw std::invalid_argument{"svc: campaign has no workers"};
  }
  daemon_.run();
  return daemon_.take_result(campaign_id_);
}

CampaignResult run_campaign(const CampaignSpec& spec, std::size_t workers,
                            CampaignOptions options) {
  if (workers == 0) workers = core::default_jobs();
  Coordinator coordinator{spec, std::move(options)};
  for (std::size_t i = 0; i < workers; ++i) coordinator.spawn_fork_worker();
  return coordinator.run();
}

}  // namespace bgpsim::svc
