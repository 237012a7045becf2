#include "rib/prefix_table.hpp"

namespace bgpsim::rib {

PrefixId PrefixTable::intern(net::Prefix prefix) {
  auto it = ids_.find(prefix);
  if (it != ids_.end()) return it->second;
  const PrefixId id = static_cast<PrefixId>(prefixes_.size());
  prefixes_.push_back(prefix);
  origins_.push_back(net::kInvalidNode);
  ids_.emplace(prefix, id);
  return id;
}

PrefixId PrefixTable::id_of(net::Prefix prefix) const {
  auto it = ids_.find(prefix);
  return it == ids_.end() ? kInvalidPrefixId : it->second;
}

void PrefixTable::set_origin(net::Prefix prefix, net::NodeId origin) {
  origins_[intern(prefix)] = origin;
}

net::NodeId PrefixTable::origin_of(net::Prefix prefix) const {
  const PrefixId id = id_of(prefix);
  return id == kInvalidPrefixId ? net::kInvalidNode : origins_[id];
}

void PrefixTable::save_state(snap::Writer& w) const {
  w.u64(prefixes_.size());
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    w.u32(prefixes_[i]);
    w.u32(origins_[i]);
  }
}

void PrefixTable::restore_state(snap::Reader& r) {
  prefixes_.clear();
  origins_.clear();
  ids_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::Prefix prefix = snap::read_prefix(r);
    const net::NodeId origin = r.u32();
    intern(prefix);
    origins_.back() = origin;
  }
}

}  // namespace bgpsim::rib
