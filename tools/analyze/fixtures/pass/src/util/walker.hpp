#pragma once

namespace bnf {

// Shares the method name `run` with region_search, which sits in a higher
// layer this file cannot include.
class shard_walker {
 public:
  int run(int cost) const;
};

int census_curve(int cost);

}  // namespace bnf
