#include "gen/named.hpp"

#include <array>

#include "util/contracts.hpp"

namespace bnf {

graph star(int n) {
  expects(n >= 1, "star: requires n >= 1");
  graph g(n);
  for (int leaf = 1; leaf < n; ++leaf) g.add_edge(0, leaf);
  return g;
}

graph path(int n) {
  expects(n >= 1, "path: requires n >= 1");
  graph g(n);
  for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

graph cycle(int n) {
  expects(n >= 3, "cycle: requires n >= 3");
  graph g = path(n);
  g.add_edge(n - 1, 0);
  return g;
}

graph complete(int n) {
  expects(n >= 1, "complete: requires n >= 1");
  graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

graph complete_bipartite(int a, int b) {
  expects(a >= 1 && b >= 1, "complete_bipartite: requires a, b >= 1");
  const std::array<int, 2> parts{a, b};
  return complete_multipartite(parts);
}

graph complete_multipartite(std::span<const int> parts) {
  int n = 0;
  for (const int part : parts) {
    expects(part >= 1, "complete_multipartite: part sizes must be >= 1");
    n += part;
  }
  graph g(n);
  // Vertices are numbered part by part; join all cross-part pairs.
  int begin_a = 0;
  for (std::size_t pa = 0; pa < parts.size(); ++pa) {
    int begin_b = begin_a + parts[pa];
    for (std::size_t pb = pa + 1; pb < parts.size(); ++pb) {
      for (int u = begin_a; u < begin_a + parts[pa]; ++u) {
        for (int v = begin_b; v < begin_b + parts[pb]; ++v) g.add_edge(u, v);
      }
      begin_b += parts[pb];
    }
    begin_a += parts[pa];
  }
  return g;
}

graph wheel(int n) {
  expects(n >= 4, "wheel: requires n >= 4");
  graph g(n);
  for (int v = 1; v < n; ++v) {
    g.add_edge(0, v);
    g.add_edge(v, v == n - 1 ? 1 : v + 1);
  }
  return g;
}

graph circulant(int n, std::span<const int> offsets) {
  expects(n >= 2, "circulant: requires n >= 2");
  graph g(n);
  for (const int offset : offsets) {
    expects(offset >= 1 && offset <= n / 2,
            "circulant: offsets must lie in [1, n/2]");
    for (int v = 0; v < n; ++v) {
      const int w = (v + offset) % n;
      if (v != w) g.add_edge(v, w);
    }
  }
  return g;
}

graph lcf_graph(std::span<const int> pattern, int repeats) {
  expects(!pattern.empty() && repeats >= 1, "lcf_graph: empty specification");
  const int n = static_cast<int>(pattern.size()) * repeats;
  expects(n >= 3 && n <= max_vertices, "lcf_graph: order out of range");
  graph g = cycle(n);
  for (int i = 0; i < n; ++i) {
    const int jump = pattern[static_cast<std::size_t>(i) % pattern.size()];
    const int j = ((i + jump) % n + n) % n;
    expects(j != i && j != (i + 1) % n && j != (i + n - 1) % n,
            "lcf_graph: chord collides with the Hamiltonian cycle");
    g.add_edge(i, j);
  }
  return g;
}

graph generalized_petersen(int n, int k) {
  expects(n >= 3 && k >= 1 && 2 * k < n,
          "generalized_petersen: requires n >= 3, 1 <= k < n/2");
  expects(2 * n <= max_vertices, "generalized_petersen: order out of range");
  graph g(2 * n);
  for (int i = 0; i < n; ++i) {
    g.add_edge(i, (i + 1) % n);          // outer cycle
    g.add_edge(n + i, n + (i + k) % n);  // inner star polygon
    g.add_edge(i, n + i);                // spoke
  }
  return g;
}

graph petersen() { return generalized_petersen(5, 2); }

graph mcgee() {
  // LCF notation [12, 7, -7]^8.
  const std::array<int, 3> pattern{12, 7, -7};
  return lcf_graph(pattern, 8);
}

graph octahedron() {
  const std::array<int, 3> parts{2, 2, 2};
  return complete_multipartite(parts);
}

graph clebsch() {
  // Folded 5-cube: vertices are 4-bit words; adjacent iff the words differ
  // in exactly one bit or are complementary (differ in all four).
  graph g(16);
  for (int u = 0; u < 16; ++u) {
    for (int v = u + 1; v < 16; ++v) {
      const int diff = u ^ v;
      const int weight = __builtin_popcount(static_cast<unsigned>(diff));
      if (weight == 1 || weight == 4) g.add_edge(u, v);
    }
  }
  return g;
}

graph hoffman_singleton() {
  // Robertson's pentagon/pentagram construction: pentagons P_h (h=0..4) on
  // vertices 5h+j, pentagrams Q_i (i=0..4) on vertices 25+5i+j;
  // p_{h,j} ~ p_{h,j±1}, q_{i,j} ~ q_{i,j±2}, p_{h,j} ~ q_{i, h*i+j mod 5}.
  graph g(50);
  const auto pentagon_vertex = [](int h, int j) { return 5 * h + j; };
  const auto pentagram_vertex = [](int i, int j) { return 25 + 5 * i + j; };
  for (int h = 0; h < 5; ++h) {
    for (int j = 0; j < 5; ++j) {
      g.add_edge(pentagon_vertex(h, j), pentagon_vertex(h, (j + 1) % 5));
      g.add_edge(pentagram_vertex(h, j), pentagram_vertex(h, (j + 2) % 5));
    }
  }
  for (int h = 0; h < 5; ++h) {
    for (int i = 0; i < 5; ++i) {
      for (int j = 0; j < 5; ++j) {
        g.add_edge(pentagon_vertex(h, j), pentagram_vertex(i, (h * i + j) % 5));
      }
    }
  }
  return g;
}

graph desargues() { return generalized_petersen(10, 3); }

graph dodecahedron() { return generalized_petersen(10, 2); }

graph heawood() {
  const std::array<int, 2> pattern{5, -5};
  return lcf_graph(pattern, 7);
}

graph tutte_coxeter() {
  const std::array<int, 6> pattern{-13, -9, 7, -7, 9, 13};
  return lcf_graph(pattern, 5);
}

graph pappus() {
  const std::array<int, 6> pattern{5, 7, -7, 7, -7, -5};
  return lcf_graph(pattern, 3);
}

graph moebius_kantor() { return generalized_petersen(8, 3); }

graph nauru() { return generalized_petersen(12, 5); }

graph franklin() {
  const std::array<int, 2> pattern{5, -5};
  return lcf_graph(pattern, 6);
}

graph paley(int q) {
  expects(q >= 5 && q <= 61 && q % 4 == 1, "paley: requires prime q = 1 mod 4");
  for (int f = 2; f * f <= q; ++f) {
    expects(q % f != 0, "paley: q must be prime");
  }
  // Quadratic residues mod q.
  std::array<bool, max_vertices> residue{};
  for (int x = 1; x < q; ++x) residue[static_cast<std::size_t>(x * x % q)] = true;
  graph g(q);
  for (int u = 0; u < q; ++u) {
    for (int v = u + 1; v < q; ++v) {
      if (residue[static_cast<std::size_t>((v - u) % q)]) g.add_edge(u, v);
    }
  }
  return g;
}

std::vector<named_graph> paper_gallery() {
  std::vector<named_graph> gallery;
  gallery.push_back({"petersen", petersen(),
                     "(3,5)-cage, Moore graph, SRG(10,3,0,1) [Fig 1.1]"});
  gallery.push_back({"mcgee", mcgee(), "(3,7)-cage [Fig 1.2]"});
  gallery.push_back({"octahedron", octahedron(), "SRG(6,4,2,4) [Fig 1.3]"});
  gallery.push_back({"clebsch", clebsch(), "SRG(16,5,0,2) [Fig 1.4]"});
  gallery.push_back({"hoffman_singleton", hoffman_singleton(),
                     "(7,5)-cage, Moore graph, SRG(50,7,0,1) [Fig 1.5]"});
  gallery.push_back({"star_8", star(8), "star on 8 vertices [Fig 1.6]"});
  gallery.push_back({"desargues", desargues(),
                     "link-convex symmetric cubic graph (Sec 4.1)"});
  gallery.push_back({"dodecahedron", dodecahedron(),
                     "symmetric cubic graph that is NOT link-convex (Sec 4.1)"});
  gallery.push_back({"heawood", heawood(), "(3,6)-cage (Prop 3 family)"});
  gallery.push_back({"tutte_coxeter", tutte_coxeter(),
                     "(3,8)-cage (Prop 3 family)"});
  return gallery;
}

}  // namespace bnf
