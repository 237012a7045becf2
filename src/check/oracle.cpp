#include "check/oracle.hpp"

#include <stdexcept>
#include <utility>

#include "check/invariants.hpp"

namespace bgpsim::check {

std::string Violation::to_string() const {
  std::string line = "[" + invariant + "] t=" + sim::to_string(at);
  if (node != net::kInvalidNode) line += " node " + std::to_string(node);
  return line + ": " + detail;
}

void Invariant::report(sim::SimTime at, net::NodeId node,
                       std::string detail) const {
  if (report_) report_(Violation{std::string{name()}, at, node,
                                 std::move(detail)});
}

Oracle Oracle::standard() {
  Oracle oracle;
  for (auto& invariant : standard_invariants()) {
    oracle.add(std::move(invariant));
  }
  return oracle;
}

Invariant& Oracle::add(std::unique_ptr<Invariant> invariant) {
  invariant->set_report_sink([this](Violation v) { record(std::move(v)); });
  invariants_.push_back(std::move(invariant));
  return *invariants_.back();
}

void Oracle::arm(const Context& context) {
  context_ = context;
  violations_.clear();
  violations_seen_ = 0;
  observations_ = 0;
  for (auto& invariant : invariants_) invariant->arm(context);
}

bool Oracle::observes_mrai_expiries() const {
  for (const auto& invariant : invariants_) {
    if (invariant->observes_mrai_expiries()) return true;
  }
  return false;
}

void Oracle::record(Violation v) {
  ++violations_seen_;
  if (violations_.size() < kMaxStored) violations_.push_back(std::move(v));
}

void Oracle::on_route_installed(net::NodeId node, net::Prefix prefix,
                                const std::optional<bgp::AsPath>& best,
                                sim::SimTime at) {
  ++observations_;
  for (auto& i : invariants_) i->on_route_installed(node, prefix, best, at);
}

void Oracle::on_update_sent(net::NodeId from, net::NodeId to,
                            const bgp::UpdateMsg& msg, sim::SimTime at) {
  ++observations_;
  for (auto& i : invariants_) i->on_update_sent(from, to, msg, at);
}

void Oracle::on_update_received(net::NodeId node, net::NodeId from,
                                const bgp::UpdateMsg& msg, sim::SimTime at) {
  ++observations_;
  for (auto& i : invariants_) i->on_update_received(node, from, msg, at);
}

void Oracle::on_session_changed(net::NodeId node, net::NodeId peer, bool up,
                                sim::SimTime at) {
  ++observations_;
  for (auto& i : invariants_) i->on_session_changed(node, peer, up, at);
}

void Oracle::on_mrai_expired(net::NodeId node, net::NodeId peer,
                             net::Prefix prefix, bool was_pending,
                             sim::SimTime at) {
  ++observations_;
  for (auto& i : invariants_) {
    i->on_mrai_expired(node, peer, prefix, was_pending, at);
  }
}

void Oracle::on_fib_changed(net::NodeId node, net::Prefix prefix,
                            std::optional<net::NodeId> previous,
                            std::optional<net::NodeId> current,
                            sim::SimTime at) {
  ++observations_;
  for (auto& i : invariants_) {
    i->on_fib_changed(node, prefix, previous, current, at);
  }
}

void Oracle::at_quiescence(const QuiescentView& view, sim::SimTime at) {
  ++observations_;
  for (auto& i : invariants_) i->at_quiescence(view, at);
}

void Oracle::on_restored(std::uint64_t snapshot_hash, std::uint64_t live_hash,
                         sim::SimTime at) {
  ++observations_;
  for (auto& i : invariants_) i->on_restored(snapshot_hash, live_hash, at);
}

void Oracle::observe_fibs(sim::Simulator& simulator,
                          std::vector<fwd::Fib>& fibs) {
  for (net::NodeId node = 0; node < fibs.size(); ++node) {
    fibs[node].add_observer(
        [this, node, &simulator](net::Prefix prefix,
                                 std::optional<net::NodeId> previous,
                                 std::optional<net::NodeId> current) {
          on_fib_changed(node, prefix, previous, current, simulator.now());
        });
  }
}

std::string Oracle::summary(std::size_t max_lines) const {
  if (ok()) return "";
  std::string out = std::to_string(violations_seen_) + " invariant violation" +
                    (violations_seen_ == 1 ? "" : "s");
  std::size_t shown = 0;
  for (const auto& v : violations_) {
    if (shown == max_lines) break;
    out += "\n  " + v.to_string();
    ++shown;
  }
  if (violations_seen_ > shown) {
    out += "\n  ... and " + std::to_string(violations_seen_ - shown) + " more";
  }
  return out;
}

void Oracle::throw_if_violated() const {
  if (!ok()) throw std::runtime_error{summary()};
}

}  // namespace bgpsim::check
