// Building AS paths in tests.
//
// Production code builds every path of a trial in that trial's
// bgp::PathArena. Tests build literal paths such as (6 4 0) in many helpers
// and compare them with what a speaker or network computed, and arena
// paths compare by handle, so everything a test process builds shares one
// arena: paths() is handed to the speakers and networks a test constructs,
// and path_of() builds literals in it.
#pragma once

#include <initializer_list>

#include "bgp/path_arena.hpp"
#include "net/types.hpp"

namespace bgpsim::test {

/// The test process's arena.
inline bgp::PathArena& paths() {
  static bgp::PathArena arena;
  return arena;
}

/// The path with these hops, front first, in paths().
inline bgp::AsPath path_of(std::initializer_list<net::NodeId> hops) {
  return paths().make(hops);
}

}  // namespace bgpsim::test
