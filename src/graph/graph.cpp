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

graph graph::from_edges(int n, std::span<const std::pair<int, int>> edges) {
  graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
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

graph graph::induced(std::uint64_t mask) const {
  expects((mask & ~vertex_mask()) == 0,
          "graph::induced: mask contains out-of-range vertices");
  std::vector<int> keep;
  for_each_bit(mask, [&](int v) { keep.push_back(v); });
  graph g(static_cast<int>(keep.size()));
  for (std::size_t a = 0; a < keep.size(); ++a) {
    for (std::size_t b = a + 1; b < keep.size(); ++b) {
      if (has_edge(keep[a], keep[b])) {
        g.add_edge(static_cast<int>(a), static_cast<int>(b));
      }
    }
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

std::string graph::to_graph6() const {
  expects(n_ <= 62, "graph::to_graph6: requires order <= 62");
  std::string out;
  out.push_back(static_cast<char>(n_ + 63));
  int bit_pos = 0;
  char current = 0;
  // Column-major upper triangle, 6 bits per printable character.
  for (int j = 1; j < n_; ++j) {
    for (int i = 0; i < j; ++i) {
      current = static_cast<char>(current << 1);
      if (has_edge(i, j)) current |= 1;
      if (++bit_pos == 6) {
        out.push_back(static_cast<char>(current + 63));
        bit_pos = 0;
        current = 0;
      }
    }
  }
  if (bit_pos > 0) {
    current = static_cast<char>(current << (6 - bit_pos));
    out.push_back(static_cast<char>(current + 63));
  }
  return out;
}

graph graph::from_graph6(const std::string& text) {
  expects(!text.empty(), "graph::from_graph6: empty input");
  const int n = text[0] - 63;
  expects(n >= 0 && n <= 62, "graph::from_graph6: unsupported order");
  graph g(n);
  const int total_bits = n * (n - 1) / 2;
  const int needed = (total_bits + 5) / 6;
  expects(static_cast<int>(text.size()) == 1 + needed,
          "graph::from_graph6: truncated or oversized input");
  int bit_index = 0;
  for (int j = 1; j < n; ++j) {
    for (int i = 0; i < j; ++i, ++bit_index) {
      const int chunk = text[static_cast<std::size_t>(1 + bit_index / 6)] - 63;
      expects(chunk >= 0 && chunk < 64, "graph::from_graph6: bad character");
      const int shift = 5 - (bit_index % 6);
      if ((chunk >> shift) & 1) g.add_edge(i, j);
    }
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
