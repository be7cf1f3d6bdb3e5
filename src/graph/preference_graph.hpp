// Preference graph (paper §III): a weighted, directed graph over the same
// vertices as the task graph. The weight w_ij in (0, 1] of edge v_i -> v_j
// is the truth confidence of "O_i is preferred to O_j"; w_ij == 0 means the
// edge is absent. The budget constraint makes the graph 2l/n-regular with
// l << C(n,2), i.e. very sparse, so it is stored as sorted per-row
// out-adjacency only: memory is O(n + m), a lookup is a binary search in
// one row, and every traversal walks the rows. Step 3 densifies the graph
// itself where an engine needs it (to_dense()).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "util/matrix.hpp"

namespace crowdrank {

/// One stored edge of a row: v -> to with weight in (0, 1].
struct OutEdge {
  VertexId to;
  double weight;
};

/// Weighted digraph. Invariants enforced: weights lie in [0, 1]; the
/// diagonal is always 0 (no self-preference); each row stores exactly the
/// positive-weight out-edges, strictly ascending by target id.
class PreferenceGraph {
 public:
  /// n isolated vertices; n >= 2.
  explicit PreferenceGraph(std::size_t n);

  std::size_t vertex_count() const { return rows_.size(); }

  /// Number of directed edges (entries with weight > 0).
  std::size_t edge_count() const;

  /// Sets w(from -> to). Requires weight in [0, 1] and from != to.
  /// weight == 0 removes the edge.
  void set_weight(VertexId from, VertexId to, double weight);

  /// w(from -> to); 0 when the edge is absent. The bounds check is
  /// debug-only.
  double weight(VertexId from, VertexId to) const;

  bool has_edge(VertexId from, VertexId to) const {
    return weight(from, to) > 0.0;
  }

  /// The out-edges of v, ascending by target id. The span stays valid
  /// until the next set_weight on row v.
  std::span<const OutEdge> out_edges(VertexId v) const;

  /// Number of incoming / outgoing edges of v.
  std::size_t in_degree(VertexId v) const;
  std::size_t out_degree(VertexId v) const { return out_edges(v).size(); }

  /// An *in-node* has only incoming edges (and at least one); an *out-node*
  /// has only outgoing edges (paper §III). In-nodes must rank last,
  /// out-nodes first; two of either kind rule out any Hamiltonian path
  /// (Thm 4.3).
  bool is_in_node(VertexId v) const;
  bool is_out_node(VertexId v) const;
  std::vector<VertexId> in_nodes() const;
  std::vector<VertexId> out_nodes() const;

  /// True when every ordered pair (i, j), i != j, has weight > 0.
  bool is_complete() const;

  /// Strong connectivity: forward reachability from vertex 0 over the
  /// rows, then backward reachability over their transpose (iterative).
  /// The smoothed graph must be strongly connected for Thm 5.1 to hold.
  bool is_strongly_connected() const;

  /// Dense n x n copy of the weights (row = from, col = to).
  Matrix to_dense() const;

  /// Builds a graph directly from a weight matrix (validating invariants).
  static PreferenceGraph from_matrix(const Matrix& weights);

  /// Builds a graph from unsorted per-row out-edges, one vertex per row
  /// (rows.size() >= 2), sorting each row in place. A row may name each
  /// target at most once; zero-weight entries are dropped.
  static PreferenceGraph from_rows(std::vector<std::vector<OutEdge>> rows);

 private:
  void check_vertex(VertexId v) const;
  /// In-degree of every vertex, in one pass over the rows.
  std::vector<std::size_t> in_degrees() const;

  std::vector<std::vector<OutEdge>> rows_;
};

}  // namespace crowdrank
