#include "graph/graph.hpp"

#include <sstream>

#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

graph::graph(int n) : n_(n) {
  expects(n >= 0 && n <= max_vertices, "graph: order must be in [0, 64]");
  adj_.assign(static_cast<std::size_t>(n), 0);
}

graph::graph(int n, std::initializer_list<std::pair<int, int>> edges)
    : graph(n) {
  for (const auto& [u, v] : edges) add_edge(u, v);
}

int graph::size() const noexcept {
  int twice = 0;
  for (const auto row : adj_) twice += popcount(row);
  return twice / 2;
}

void graph::vertex_out_of_range() {
  throw precondition_error("graph: vertex index out of range");
}

void graph::check_pair(int u, int v) const {
  check_vertex(u);
  check_vertex(v);
  expects(u != v, "graph: self-loops are not allowed");
}

bool graph::has_edge(int u, int v) const {
  check_pair(u, v);
  return has_bit(adj_[static_cast<std::size_t>(u)], v);
}

void graph::add_edge(int u, int v) {
  check_pair(u, v);
  adj_[static_cast<std::size_t>(u)] |= bit(v);
  adj_[static_cast<std::size_t>(v)] |= bit(u);
}

void graph::remove_edge(int u, int v) {
  check_pair(u, v);
  adj_[static_cast<std::size_t>(u)] &= ~bit(v);
  adj_[static_cast<std::size_t>(v)] &= ~bit(u);
}

bool graph::toggle_edge(int u, int v) {
  check_pair(u, v);
  adj_[static_cast<std::size_t>(u)] ^= bit(v);
  adj_[static_cast<std::size_t>(v)] ^= bit(u);
  return has_bit(adj_[static_cast<std::size_t>(u)], v);
}

graph graph::with_edge(int u, int v) const {
  graph g = *this;
  g.add_edge(u, v);
  return g;
}

graph graph::without_edge(int u, int v) const {
  graph g = *this;
  g.remove_edge(u, v);
  return g;
}

std::vector<std::pair<int, int>> graph::edges() const {
  std::vector<std::pair<int, int>> list;
  list.reserve(static_cast<std::size_t>(size()));
  for (int u = 0; u < n_; ++u) {
    const std::uint64_t above = adj_[static_cast<std::size_t>(u)] &
                                ~low_bits(u + 1);
    for_each_bit(above, [&](int v) { list.emplace_back(u, v); });
  }
  return list;
}

std::vector<std::pair<int, int>> graph::non_edges() const {
  std::vector<std::pair<int, int>> list;
  for (int u = 0; u < n_; ++u) {
    const std::uint64_t missing = vertex_mask() & ~low_bits(u + 1) &
                                  ~adj_[static_cast<std::size_t>(u)];
    for_each_bit(missing, [&](int v) { list.emplace_back(u, v); });
  }
  return list;
}

graph graph::complement() const {
  graph g(n_);
  for (int v = 0; v < n_; ++v) {
    g.adj_[static_cast<std::size_t>(v)] =
        vertex_mask() & ~adj_[static_cast<std::size_t>(v)] & ~bit(v);
  }
  return g;
}

graph graph::permuted(std::span<const int> perm) const {
  expects(static_cast<int>(perm.size()) == n_,
          "graph::permuted: permutation size must equal order");
  std::uint64_t seen = 0;
  for (const int image : perm) {
    expects(image >= 0 && image < n_ && !has_bit(seen, image),
            "graph::permuted: not a permutation of 0..n-1");
    seen |= bit(image);
  }
  graph g(n_);
  for (int v = 0; v < n_; ++v) {
    for_each_bit(adj_[static_cast<std::size_t>(v)], [&](int w) {
      const int pv = perm[static_cast<std::size_t>(v)];
      const int pw = perm[static_cast<std::size_t>(w)];
      g.adj_[static_cast<std::size_t>(pv)] |= bit(pw);
    });
  }
  return g;
}

graph graph::with_vertex() const {
  expects(n_ < max_vertices, "graph::with_vertex: already at 64 vertices");
  graph g(n_ + 1);
  for (int v = 0; v < n_; ++v) {
    g.adj_[static_cast<std::size_t>(v)] = adj_[static_cast<std::size_t>(v)];
  }
  return g;
}

void graph::assign_rows(std::span<const std::uint64_t> rows) {
  expects(rows.size() <= static_cast<std::size_t>(max_vertices),
          "graph::assign_rows: order must be in [0, 64]");
  n_ = static_cast<int>(rows.size());
  adj_.assign(rows.begin(), rows.end());
}

// Row i of the upper triangle, the pairs (i, j > i), occupies the n-1-i
// key bits starting at i(n-1) - i(i-1)/2; both codec directions move one
// such segment per vertex.
std::uint64_t graph::key64() const {
  expects(n_ <= max_key64_vertices, "graph::key64: requires order <= 11");
  std::uint64_t key = 0;
  int offset = 0;
  for (int i = 0; i + 1 < n_; ++i) {
    const int length = n_ - 1 - i;
    key |= ((adj_[static_cast<std::size_t>(i)] >> (i + 1)) & low_bits(length))
           << offset;
    offset += length;
  }
  return key;
}

graph graph::from_key64(int n, std::uint64_t key) {
  expects(n >= 0 && n <= max_key64_vertices,
          "graph::from_key64: requires 0 <= n <= 11");
  expects((key & ~low_bits(n * (n - 1) / 2)) == 0,
          "graph::from_key64: key has bits beyond C(n,2)");
  graph g(n);
  int offset = 0;
  for (int i = 0; i + 1 < n; ++i) {
    const int length = n - 1 - i;
    const std::uint64_t row = ((key >> offset) & low_bits(length)) << (i + 1);
    g.adj_[static_cast<std::size_t>(i)] |= row;
    for_each_bit(row, [&](int j) {
      g.adj_[static_cast<std::size_t>(j)] |= bit(i);
    });
    offset += length;
  }
  return g;
}

std::string to_string(const graph& g) {
  std::ostringstream out;
  out << "n=" << g.order() << " m=" << g.size() << " edges={";
  bool first = true;
  for (const auto& [u, v] : g.edges()) {
    if (!first) out << ",";
    out << "(" << u << "," << v << ")";
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace bnf
