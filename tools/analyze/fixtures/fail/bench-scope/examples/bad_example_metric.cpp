// Fixture: MUST FAIL — examples/ is in the line-rule scan scope; metric
// lookups by string literal drift the day a producer renames the metric.
namespace bnf::obs {
long get_counter(const char* name);
}

int main() {
  return static_cast<int>(bnf::obs::get_counter("census.graphs_total"));
}
