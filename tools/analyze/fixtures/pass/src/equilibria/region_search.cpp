#include "equilibria/region_search.hpp"

namespace bnf {

int per_alpha_nash(int cost) { return cost * 2; }

int region_search::run(int cost) { return per_alpha_nash(cost); }

}  // namespace bnf
