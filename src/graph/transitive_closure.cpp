#include "graph/transitive_closure.hpp"

#include <queue>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace crowdrank {

std::vector<std::vector<bool>> reachability_closure(
    const PreferenceGraph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<std::vector<bool>> closure(n, std::vector<bool>(n, false));
  parallel_for(0, n, /*grain=*/8, [&](std::size_t s0, std::size_t s1) {
    // Per-chunk scratch; each source writes only closure[src].
    std::vector<VertexId> stack;
    for (std::size_t src = s0; src < s1; ++src) {
      std::vector<bool>& row = closure[src];
      stack.clear();
      stack.push_back(static_cast<VertexId>(src));
      while (!stack.empty()) {
        const VertexId v = stack.back();
        stack.pop_back();
        for (const OutEdge& e : g.out_edges(v)) {
          const VertexId u = e.to;
          if (!row[u]) {
            row[u] = true;  // u reachable by a non-empty path; src -> src
                            // only becomes true via a directed cycle
            stack.push_back(u);
          }
        }
      }
    }
  });
  return closure;
}

std::vector<std::vector<bool>> reachability_closure_dense(
    const PreferenceGraph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<std::vector<bool>> closure(n, std::vector<bool>(n, false));
  for (VertexId src = 0; src < n; ++src) {
    std::queue<VertexId> frontier;
    frontier.push(src);
    std::vector<bool> seen(n, false);
    seen[src] = true;  // marks "expanded", not "reachable": closure excludes
                       // the trivial empty path src -> src
    while (!frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop();
      for (VertexId u = 0; u < n; ++u) {
        if (g.weight(v, u) > 0.0 && !closure[src][u]) {
          closure[src][u] = true;
          if (!seen[u]) {
            seen[u] = true;
            frontier.push(u);
          }
        }
      }
    }
  }
  return closure;
}

namespace {

/// DFS over simple paths from src accumulating products into out(src, *).
void enumerate_paths(const PreferenceGraph& g, VertexId src, VertexId current,
                     double product, std::size_t depth, std::size_t max_len,
                     std::vector<bool>& on_path, Matrix& out) {
  if (depth >= max_len) return;
  for (const OutEdge& e : g.out_edges(current)) {
    const VertexId next = e.to;
    if (on_path[next]) continue;
    const double extended = product * e.weight;
    if (depth + 1 >= 2) {
      // Paths of length >= 2 contribute to the indirect preference.
      out(src, next) += extended;
    }
    on_path[next] = true;
    enumerate_paths(g, src, next, extended, depth + 1, max_len, on_path, out);
    on_path[next] = false;
  }
}

}  // namespace

Matrix exact_indirect_preferences(const PreferenceGraph& g,
                                  std::size_t max_len) {
  const std::size_t n = g.vertex_count();
  CR_EXPECTS(max_len >= 2, "indirect paths have length >= 2");
  Matrix out(n, n, 0.0);
  std::vector<bool> on_path(n, false);
  for (VertexId src = 0; src < n; ++src) {
    on_path[src] = true;
    enumerate_paths(g, src, src, 1.0, 0, max_len, on_path, out);
    on_path[src] = false;
  }
  return out;
}

Matrix walk_indirect_preferences(const Matrix& weights, std::size_t max_len) {
  CR_EXPECTS(weights.is_square(), "weight matrix must be square");
  CR_EXPECTS(max_len >= 2, "indirect walks have length >= 2");
  return Matrix::power_sum(weights, 2, max_len);
}

}  // namespace crowdrank
