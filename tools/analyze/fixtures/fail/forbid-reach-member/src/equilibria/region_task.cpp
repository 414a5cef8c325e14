#include "equilibria/region_search.hpp"
#include "util/task.hpp"

namespace bnf {

class region_task : public task {
 public:
  int run(int cost) const override { return per_alpha_nash(cost); }
};

}  // namespace bnf
