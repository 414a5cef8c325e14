// Fixture: every idiom in this file is one the line-local rules accept.
#include <unordered_map>
#include <vector>

namespace bnf {

// Comments may mention 1e-9 tolerances or std::thread freely; prose is
// scrubbed before any rule runs.
double grid_top(double hi) {
  // A deliberate, documented tolerance gets the inline suppression with a
  // rationale — grid construction only, never a stability decision.
  return hi * (1.0 + 1e-12);  // analyze:allow(epsilon-literal) float grid pad
}

int lookups_are_fine(const std::unordered_map<int, int>& memo) {
  const auto it = memo.find(3);  // point lookups have no iteration order
  return it == memo.end() ? 0 : it->second;
}

int outer_vector_iteration() {
  // Iterating the VECTOR of unordered maps walks the vector (deterministic
  // index order); only iterating the unordered container itself is banned.
  std::vector<std::unordered_map<int, int>> spill_shard(4);
  int total = 0;
  for (const auto& shard_map : spill_shard) {
    total += static_cast<int>(shard_map.size());
  }
  return total;
}

const char* quoted_text() {
  return "string literals may say std::thread or rand() or 1e-9";
}

}  // namespace bnf
