#include "rib/prefix_table.hpp"

#include <stdexcept>
#include <string>

namespace bgpsim::rib {

PrefixId PrefixTable::intern(net::Prefix prefix) {
  if (const PrefixId id = id_of(prefix); id != kInvalidPrefixId) return id;
  if (prefix >= net::kMaxPrefixes) {
    throw std::out_of_range{"prefix " + std::to_string(prefix) +
                            " is at or above the prefix limit"};
  }
  const PrefixId id = static_cast<PrefixId>(prefixes_.size());
  prefixes_.push_back(prefix);
  origins_.push_back(net::kInvalidNode);
  if (prefix >= ids_.size()) {
    ids_.resize(prefix + std::size_t{1}, kInvalidPrefixId);
  }
  ids_[prefix] = id;
  return id;
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
