#include "net/channel.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

namespace bgpsim::net {

bool Transport::send(NodeId from, NodeId to, Payload payload) {
  const auto link_id = topo_.link_between(from, to);
  if (!link_id || !topo_.link(*link_id).up) return false;

  ++sent_;
  const Link& link = topo_.link(*link_id);
  if (*link_id >= in_flight_.size()) in_flight_.resize(topo_.link_count());
  auto& pending = in_flight_[*link_id];

  // The event needs its own id to unregister itself from in_flight_; the
  // scheduler exposes the id the next schedule call will assign, so the
  // closure carries it by value — no shared heap state per message.
  const sim::EventId id = sim_.next_schedule_id();
  Envelope env{from, to, std::move(payload)};
  const sim::EventId scheduled = sim_.schedule_after(
      link.delay,
      [this, env = std::move(env), id, link = *link_id]() mutable {
        deliver(link, id, std::move(env));
      });
  assert(scheduled == id);
  (void)scheduled;
  pending.push_back(id);
  return true;
}

void Transport::deliver(LinkId link, sim::EventId self_id, Envelope env) {
  // Every delivery was registered by send, which sized the table.
  std::erase(in_flight_[link], self_id);
  ++delivered_;
  if (on_deliver_) on_deliver_(std::move(env));
}

bool Transport::fail_link(LinkId id) {
  if (!topo_.set_link_state(id, false)) return false;
  if (id < in_flight_.size()) {
    for (sim::EventId ev : in_flight_[id]) {
      if (sim_.cancel(ev)) ++lost_;
    }
    in_flight_[id].clear();
  }
  const Link& l = topo_.link(id);
  if (on_session_) {
    on_session_(l.a, l.b, false);
    on_session_(l.b, l.a, false);
  }
  return true;
}

bool Transport::restore_link(LinkId id) {
  if (!topo_.set_link_state(id, true)) return false;
  const Link& l = topo_.link(id);
  if (on_session_) {
    on_session_(l.a, l.b, true);
    on_session_(l.b, l.a, true);
  }
  return true;
}

void Transport::fail_node(NodeId n) {
  for (LinkId id : topo_.links_of(n)) fail_link(id);
}

}  // namespace bgpsim::net
