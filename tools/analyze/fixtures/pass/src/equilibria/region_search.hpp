#pragma once

namespace bnf {

int per_alpha_nash(int cost);

// Its `run` reaches the forbidden per_alpha_nash.
class region_search {
 public:
  int run(int cost);
};

}  // namespace bnf
