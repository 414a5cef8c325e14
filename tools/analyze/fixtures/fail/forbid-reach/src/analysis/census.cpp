namespace bnf {

int per_alpha_search(int cost) { return cost * 2; }

int helper(int cost) {
  // analyze:allow(*) an allow never waives a forbid-reach policy
  return per_alpha_search(cost);
}

int census_root() { return helper(3); }

}  // namespace bnf
