// Fixture: MUST FAIL — bench/ is in the line-rule scan scope; ad-hoc entropy
// in a benchmark driver breaks run-to-run comparability the same way it
// would in src/.
#include <random>

namespace bnf {

unsigned bench_roll() {
  std::random_device device;
  return device();
}

}  // namespace bnf
