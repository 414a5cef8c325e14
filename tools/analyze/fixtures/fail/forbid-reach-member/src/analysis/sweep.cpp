#include "equilibria/region_search.hpp"

namespace bnf {

// The include makes region_search::run visible, so `search.run` resolves
// to it and the chain reaches per_alpha_nash.
int census_sweep(int cost) {
  region_search search;
  return search.run(cost);
}

}  // namespace bnf
