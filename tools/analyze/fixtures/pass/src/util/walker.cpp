#include "util/walker.hpp"

namespace bnf {

int shard_walker::run(int cost) const { return cost + 1; }

// `walker.run` may only resolve to a `run` this file can see through its
// includes: shard_walker's, never region_search's.
int census_curve(int cost) {
  const shard_walker walker;
  return walker.run(cost);
}

}  // namespace bnf
