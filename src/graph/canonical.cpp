#include "graph/canonical.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "graph/metrics.hpp"
#include "util/bitops.hpp"
#include "util/contracts.hpp"

namespace bnf {

namespace {

// Cap on stored automorphism generators. Pruning degrades gracefully (but
// stays sound) if exceeded; graphs on <= 64 vertices discover far fewer.
constexpr int max_generators = 512;

// An ordered partition of the vertices: `elems` lists vertices, cells are
// maximal runs, and bit p of `starts` marks a cell beginning at position p
// (bit 0 is always set).
struct ordered_partition {
  int n{0};
  std::array<std::uint8_t, max_vertices> elems{};
  std::uint64_t starts{1};
};

// First position of every cell with two or more members.
std::uint64_t non_singleton_starts(const ordered_partition& p) {
  return p.starts & ~(p.starts >> 1) & low_bits(p.n - 1);
}

// One past the last position of the cell starting at `begin`, read off a
// `starts` mask.
int cell_end(std::uint64_t starts, int begin, int n) {
  const std::uint64_t later = starts & ~low_bits(begin + 1);
  return later != 0 ? lowest_bit(later) : n;
}

// Only the first n slots are ever written or read.
struct union_find {
  std::array<int, max_vertices> parent;

  explicit union_find(int n) {
    for (int i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void merge(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[static_cast<std::size_t>(b)] = a;  // smaller id becomes root
  }
};

// One search over g, written into a caller-owned result: the generators
// are collected straight into out.generators, and every vector of `out` is
// overwritten in place, so a reused result keeps its capacity.
class canon_search {
 public:
  canon_search(const graph& g, canon_result& out)
      : n_(g.order()), out_(out), orbits_(n_) {
    for (int v = 0; v < n_; ++v) {
      adj_[static_cast<std::size_t>(v)] = g.neighbors(v);
    }
  }

  // Fill `out` with the canonical form, or return false when `last` >= 0
  // is not in the last cell of the refined root partition. The search
  // only individualizes and splits cells in place, so every leaf keeps
  // that cell at its tail, and refining the unit partition is
  // isomorphism-invariant, so the cell also holds labeling[n-1]'s whole
  // Aut(g)-orbit.
  bool run(int last) {
    if (n_ == 0) {
      out_.labeling.clear();
      out_.canonical.assign_rows({});
      out_.orbits.clear();
      out_.generators_found = 0;
      out_.generators.clear();
      return true;
    }
    const ordered_partition root = refined_root();
    if (last >= 0 && last_cell_begin(root, last) < 0) return false;
    complete(root);
    return true;
  }

  // The canonical-deletion test past its degree tier (see
  // canonical_deletion_test); requires n_ >= 1.
  deletion_verdict decide(int v) {
    const ordered_partition root = refined_root();
    const int begin = last_cell_begin(root, v);
    if (begin < 0) return deletion_verdict::refine_reject;
    if (begin == n_ - 1) return deletion_verdict::refine_accept;
    complete(root);
    const int last = best_leaf_[static_cast<std::size_t>(n_ - 1)];
    return orbits_.find(v) == orbits_.find(last)
               ? deletion_verdict::orbit_accept
               : deletion_verdict::orbit_reject;
  }

 private:
  ordered_partition refined_root() {
    ordered_partition root;
    root.n = n_;
    for (int i = 0; i < n_; ++i) {
      root.elems[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    }
    refine(root, low_bits(n_));
    return root;
  }

  // First position of the refined partition's last cell, or -1 when v is
  // not in it.
  int last_cell_begin(const ordered_partition& root, int v) const {
    const int begin = 63 - std::countl_zero(root.starts);
    const auto tail = root.elems.begin() + n_;
    return std::find(root.elems.begin() + begin, tail, v) == tail ? -1
                                                                  : begin;
  }

  // Branch search from the refined root, then write the result to `out`.
  void complete(const ordered_partition& root) {
    out_.generators.clear();
    search(root);

    out_.labeling.assign(best_leaf_.begin(), best_leaf_.begin() + n_);
    // best_rows_ already is the adjacency of the best leaf's relabeling.
    out_.canonical.assign_rows(std::span(best_rows_.data(),
                                         static_cast<std::size_t>(n_)));
    out_.orbits.resize(static_cast<std::size_t>(n_));
    for (int v = 0; v < n_; ++v) {
      out_.orbits[static_cast<std::size_t>(v)] = orbits_.find(v);
    }
    out_.generators_found = static_cast<int>(out_.generators.size());
  }

  // --- refinement ---------------------------------------------------------

  // Upper bound on outstanding refinement scopes: every split of a cell
  // into k fragments pushes k scopes, and the total number of fragments
  // created across one refinement pass is < 2n <= 128.
  static constexpr int max_worklist = 4 * max_vertices;

  // Make the partition equitable, starting from `initial_scope` as the
  // first splitting scope (1-dimensional Weisfeiler-Leman refinement).
  // Each scope visits the non-singleton cells of a snapshot of `starts`,
  // left to right: splitting a cell only adds starts inside that cell, so
  // the snapshot holds exactly the cells a left-to-right rescan would meet.
  void refine(ordered_partition& p, std::uint64_t initial_scope) {
    std::array<std::uint64_t, max_worklist> worklist;  // first work_count live
    int work_count = 0;
    worklist[static_cast<std::size_t>(work_count++)] = initial_scope;

    while (work_count > 0) {
      const std::uint64_t scope = worklist[static_cast<std::size_t>(--work_count)];
      const std::uint64_t starts = p.starts;
      for_each_bit(non_singleton_starts(p), [&](int begin) {
        split_cell(p, begin, cell_end(starts, begin, p.n), scope, worklist,
                   work_count);
      });
    }
  }

  // Split cell [begin, end) by neighbour counts into `scope`, descending.
  // New fragments are appended to the worklist.
  void split_cell(ordered_partition& p, int begin, int end,
                  std::uint64_t scope,
                  std::array<std::uint64_t, max_worklist>& worklist,
                  int& work_count) {
    std::array<std::uint8_t, max_vertices> verts;  // first `size` live
    std::array<std::int8_t, max_vertices> counts;
    const int size = end - begin;
    bool uniform = true;
    for (int i = 0; i < size; ++i) {
      const int v = p.elems[static_cast<std::size_t>(begin + i)];
      verts[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
      counts[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(
          popcount(adj_[static_cast<std::size_t>(v)] & scope));
      if (counts[static_cast<std::size_t>(i)] != counts[0]) uniform = false;
    }
    if (uniform) return;

    // Insertion sort by count descending, stable (cells are tiny).
    for (int i = 1; i < size; ++i) {
      const std::uint8_t v = verts[static_cast<std::size_t>(i)];
      const std::int8_t c = counts[static_cast<std::size_t>(i)];
      int j = i - 1;
      while (j >= 0 && counts[static_cast<std::size_t>(j)] < c) {
        verts[static_cast<std::size_t>(j + 1)] = verts[static_cast<std::size_t>(j)];
        counts[static_cast<std::size_t>(j + 1)] = counts[static_cast<std::size_t>(j)];
        --j;
      }
      verts[static_cast<std::size_t>(j + 1)] = v;
      counts[static_cast<std::size_t>(j + 1)] = c;
    }

    std::uint64_t fragment_mask = 0;
    for (int i = 0; i < size; ++i) {
      p.elems[static_cast<std::size_t>(begin + i)] = verts[static_cast<std::size_t>(i)];
      fragment_mask |= bit(verts[static_cast<std::size_t>(i)]);
      const bool boundary =
          (i + 1 == size) ||
          (counts[static_cast<std::size_t>(i + 1)] != counts[static_cast<std::size_t>(i)]);
      if (boundary) {
        ensures(work_count < static_cast<int>(worklist.size()),
                "canonical: refinement worklist overflow");
        worklist[static_cast<std::size_t>(work_count++)] = fragment_mask;
        if (i + 1 < size) p.starts |= bit(begin + i + 1);
        fragment_mask = 0;
      }
    }
  }

  // --- search -------------------------------------------------------------

  // First smallest non-singleton cell; returns {begin, end} or {-1, -1}.
  static std::pair<int, int> target_cell(const ordered_partition& p) {
    int best_begin = -1;
    int best_size = max_vertices + 1;
    for_each_bit(non_singleton_starts(p), [&](int begin) {
      const int size = cell_end(p.starts, begin, p.n) - begin;
      if (size < best_size) {
        best_size = size;
        best_begin = begin;
      }
    });
    if (best_begin < 0) return {-1, -1};
    return {best_begin, best_begin + best_size};
  }

  void search(const ordered_partition& p) {
    const auto [begin, end] = target_cell(p);
    if (begin < 0) {
      process_leaf(p);
      return;
    }

    // Candidates in ascending vertex id for determinism.
    std::array<std::uint8_t, max_vertices> candidates{};
    const int count = end - begin;
    for (int i = 0; i < count; ++i) {
      candidates[static_cast<std::size_t>(i)] =
          p.elems[static_cast<std::size_t>(begin + i)];
    }
    std::sort(candidates.begin(), candidates.begin() + count);

    std::uint64_t tried = 0;
    for (int i = 0; i < count; ++i) {
      const int v = candidates[static_cast<std::size_t>(i)];
      if (tried != 0 && orbit_equivalent_to_tried(v, tried)) continue;
      tried |= bit(v);

      ordered_partition child = p;
      individualize(child, begin, end, v);
      refine(child, bit(v));
      path_[static_cast<std::size_t>(depth_++)] = static_cast<std::uint8_t>(v);
      search(child);
      --depth_;
    }
  }

  // Move v to the front of its cell and make it a singleton.
  static void individualize(ordered_partition& p, int begin, int end, int v) {
    for (int i = begin; i < end; ++i) {
      if (p.elems[static_cast<std::size_t>(i)] == v) {
        for (int j = i; j > begin; --j) {
          p.elems[static_cast<std::size_t>(j)] =
              p.elems[static_cast<std::size_t>(j - 1)];
        }
        p.elems[static_cast<std::size_t>(begin)] = static_cast<std::uint8_t>(v);
        p.starts |= bit(begin + 1);
        return;
      }
    }
    ensures(false, "canonical: individualized vertex missing from cell");
  }

  // True if v maps into `tried` under the group generated by the recorded
  // automorphisms that fix every vertex individualized on the current path.
  // Sound pruning: exploring v would replay an already-explored subtree.
  bool orbit_equivalent_to_tried(int v, std::uint64_t tried) const {
    std::uint64_t closure = bit(v);
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& perm : out_.generators) {
        bool fixes_path = true;
        for (int d = 0; d < depth_; ++d) {
          const std::uint8_t u = path_[static_cast<std::size_t>(d)];
          if (perm[u] != u) {
            fixes_path = false;
            break;
          }
        }
        if (!fixes_path) continue;
        std::uint64_t image = 0;
        for_each_bit(closure, [&](int w) {
          image |= bit(perm[static_cast<std::size_t>(w)]);
        });
        if ((image | closure) != closure) {
          closure |= image;
          grew = true;
        }
      }
      if (closure & tried) return true;
    }
    return (closure & tried) != 0;
  }

  // --- leaves -------------------------------------------------------------

  // Certificate: adjacency rows of the relabeled graph, compared
  // lexicographically (row 0 word first).
  void leaf_certificate(const ordered_partition& p,
                        std::array<std::uint64_t, max_vertices>& rows) const {
    std::array<std::uint8_t, max_vertices> position;  // first n_ live
    for (int pos = 0; pos < n_; ++pos) {
      position[p.elems[static_cast<std::size_t>(pos)]] =
          static_cast<std::uint8_t>(pos);
    }
    for (int pos = 0; pos < n_; ++pos) {
      const int v = p.elems[static_cast<std::size_t>(pos)];
      std::uint64_t row = 0;
      for_each_bit(adj_[static_cast<std::size_t>(v)], [&](int w) {
        row |= bit(position[static_cast<std::size_t>(w)]);
      });
      rows[static_cast<std::size_t>(pos)] = row;
    }
  }

  void process_leaf(const ordered_partition& p) {
    std::array<std::uint64_t, max_vertices> rows;  // first n_ live
    leaf_certificate(p, rows);

    const auto compare = [&]() {
      if (!have_best_) return 1;
      for (int i = 0; i < n_; ++i) {
        if (rows[static_cast<std::size_t>(i)] !=
            best_rows_[static_cast<std::size_t>(i)]) {
          return rows[static_cast<std::size_t>(i)] <
                         best_rows_[static_cast<std::size_t>(i)]
                     ? -1
                     : 1;
        }
      }
      return 0;
    }();

    if (compare > 0) {
      std::copy_n(rows.begin(), n_, best_rows_.begin());
      best_leaf_ = p.elems;
      have_best_ = true;
      return;
    }
    if (compare < 0) return;

    // Equal certificates: derive the automorphism mapping this leaf's
    // labeling onto the best leaf's labeling.
    std::array<std::uint8_t, max_vertices> perm{};
    for (int pos = 0; pos < n_; ++pos) {
      perm[p.elems[static_cast<std::size_t>(pos)]] =
          best_leaf_[static_cast<std::size_t>(pos)];
    }
    for (int v = 0; v < n_; ++v) {
      orbits_.merge(v, perm[static_cast<std::size_t>(v)]);
    }
    if (static_cast<int>(out_.generators.size()) < max_generators) {
      out_.generators.push_back(perm);
    }
  }

  int n_;
  canon_result& out_;
  std::array<std::uint64_t, max_vertices> adj_;  // g's rows; first n_ live
  // The vertices individualized on the current path; first depth_ live
  // (each level fixes one more vertex, so depth_ < n_).
  std::array<std::uint8_t, max_vertices> path_{};
  int depth_{0};
  bool have_best_{false};
  // The best leaf's certificate and labeling; first n_ slots live.
  std::array<std::uint64_t, max_vertices> best_rows_;
  std::array<std::uint8_t, max_vertices> best_leaf_;
  union_find orbits_;
};

}  // namespace

canon_result canonical_form(const graph& g) {
  canon_result result;
  canonical_form(g, result);
  return result;
}

void canonical_form(const graph& g, canon_result& out) {
  canon_search(g, out).run(-1);
}

bool canonical_form_if_last(const graph& g, int v, canon_result& out) {
  expects(v >= 0 && v < g.order(),
          "canonical_form_if_last: vertex out of range");
  return canon_search(g, out).run(v);
}

deletion_verdict canonical_deletion_test(const graph& g, int v,
                                         canon_result& out) {
  expects(v >= 0 && v < g.order(),
          "canonical_deletion_test: vertex out of range");
  const int degree = g.degree(v);
  bool unique_minimum = true;
  for (int u = 0; u < g.order() && unique_minimum; ++u) {
    unique_minimum = u == v || g.degree(u) > degree;
  }
  if (unique_minimum) return deletion_verdict::degree_accept;
  return canon_search(g, out).decide(v);
}

std::uint64_t canonical_key64(const graph& g) {
  expects(g.order() <= max_key64_vertices,
          "canonical_key64: requires order <= 11");
  return canonical_form(g).canonical.key64();
}

bool are_isomorphic(const graph& a, const graph& b) {
  if (a.order() != b.order()) return false;
  if (a.size() != b.size()) return false;
  if (degree_sequence(a) != degree_sequence(b)) return false;
  return canonical_form(a).canonical == canonical_form(b).canonical;
}

std::vector<int> automorphism_orbits(const graph& g) {
  return canonical_form(g).orbits;
}

int orbit_count(const graph& g) {
  const auto orbits = automorphism_orbits(g);
  int count = 0;
  for (std::size_t v = 0; v < orbits.size(); ++v) {
    if (orbits[v] == static_cast<int>(v)) ++count;
  }
  return count;
}

}  // namespace bnf
