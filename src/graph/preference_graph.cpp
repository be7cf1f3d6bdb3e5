#include "graph/preference_graph.hpp"

#include <algorithm>
#include <iterator>

#include "util/error.hpp"

namespace crowdrank {

namespace {

bool target_less(const OutEdge& e, VertexId to) { return e.to < to; }

}  // namespace

PreferenceGraph::PreferenceGraph(std::size_t n) : rows_(n) {
  CR_EXPECTS(n >= 2, "a preference graph needs at least two objects");
}

void PreferenceGraph::check_vertex(VertexId v) const {
  CR_EXPECTS(v < rows_.size(), "vertex id out of range");
}

std::size_t PreferenceGraph::edge_count() const {
  std::size_t count = 0;
  for (const auto& row : rows_) {
    count += row.size();
  }
  return count;
}

void PreferenceGraph::set_weight(VertexId from, VertexId to, double weight) {
  check_vertex(from);
  check_vertex(to);
  CR_EXPECTS(from != to, "self-preference is not allowed");
  CR_EXPECTS(weight >= 0.0 && weight <= 1.0,
             "preference weight must lie in [0, 1]");
  auto& row = rows_[from];
  const auto it = std::lower_bound(row.begin(), row.end(), to, target_less);
  const bool present = it != row.end() && it->to == to;
  if (weight == 0.0) {
    if (present) row.erase(it);
  } else if (present) {
    it->weight = weight;
  } else {
    row.insert(it, OutEdge{to, weight});
  }
}

double PreferenceGraph::weight(VertexId from, VertexId to) const {
  CR_DEBUG_EXPECTS(from < rows_.size() && to < rows_.size(),
                   "vertex id out of range");
  const auto& row = rows_[from];
  const auto it = std::lower_bound(row.begin(), row.end(), to, target_less);
  return it != row.end() && it->to == to ? it->weight : 0.0;
}

std::span<const OutEdge> PreferenceGraph::out_edges(VertexId v) const {
  CR_DEBUG_EXPECTS(v < rows_.size(), "vertex id out of range");
  return rows_[v];
}

std::vector<std::size_t> PreferenceGraph::in_degrees() const {
  std::vector<std::size_t> in(rows_.size(), 0);
  for (const auto& row : rows_) {
    for (const OutEdge& e : row) ++in[e.to];
  }
  return in;
}

std::size_t PreferenceGraph::in_degree(VertexId v) const {
  check_vertex(v);
  std::size_t count = 0;
  for (VertexId u = 0; u < rows_.size(); ++u) {
    if (has_edge(u, v)) ++count;
  }
  return count;
}

bool PreferenceGraph::is_in_node(VertexId v) const {
  return out_degree(v) == 0 && in_degree(v) > 0;
}

bool PreferenceGraph::is_out_node(VertexId v) const {
  return out_degree(v) > 0 && in_degree(v) == 0;
}

std::vector<VertexId> PreferenceGraph::in_nodes() const {
  const std::vector<std::size_t> in = in_degrees();
  std::vector<VertexId> result;
  for (VertexId v = 0; v < rows_.size(); ++v) {
    if (in[v] > 0 && rows_[v].empty()) result.push_back(v);
  }
  return result;
}

std::vector<VertexId> PreferenceGraph::out_nodes() const {
  const std::vector<std::size_t> in = in_degrees();
  std::vector<VertexId> result;
  for (VertexId v = 0; v < rows_.size(); ++v) {
    if (in[v] == 0 && !rows_[v].empty()) result.push_back(v);
  }
  return result;
}

bool PreferenceGraph::is_complete() const {
  // Rows hold no self-edge and no duplicate, so a full row has n - 1.
  return std::all_of(rows_.begin(), rows_.end(), [&](const auto& row) {
    return row.size() + 1 == rows_.size();
  });
}

bool PreferenceGraph::is_strongly_connected() const {
  const std::size_t n = rows_.size();
  // Transpose once, O(n + m): in-neighbors of v are
  // sources[offset[v] .. offset[v + 1]).
  const std::vector<std::size_t> in = in_degrees();
  std::vector<std::size_t> offset(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) offset[v + 1] = offset[v] + in[v];
  std::vector<VertexId> sources(offset[n]);
  std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    for (const OutEdge& e : rows_[v]) sources[fill[e.to]++] = v;
  }

  // Strongly connected iff vertex 0 reaches all of V forward and backward.
  const auto reaches_all = [&](bool forward) {
    std::vector<bool> seen(n, false);
    std::vector<VertexId> stack{0};
    seen[0] = true;
    std::size_t visited = 1;
    const auto visit = [&](VertexId u) {
      if (!seen[u]) {
        seen[u] = true;
        ++visited;
        stack.push_back(u);
      }
    };
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      if (forward) {
        for (const OutEdge& e : rows_[v]) visit(e.to);
      } else {
        for (std::size_t k = offset[v]; k < offset[v + 1]; ++k) {
          visit(sources[k]);
        }
      }
    }
    return visited == n;
  };
  return reaches_all(true) && reaches_all(false);
}

Matrix PreferenceGraph::to_dense() const {
  const std::size_t n = rows_.size();
  Matrix dense(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const OutEdge& e : rows_[i]) dense(i, e.to) = e.weight;
  }
  return dense;
}

PreferenceGraph PreferenceGraph::from_rows(
    std::vector<std::vector<OutEdge>> rows) {
  PreferenceGraph g(rows.size());
  const std::size_t n = rows.size();
  for (std::size_t v = 0; v < n; ++v) {
    auto& row = rows[v];
    for (const OutEdge& e : row) {
      CR_EXPECTS(e.to < n, "vertex id out of range");
      CR_EXPECTS(e.to != v, "self-preference is not allowed");
      CR_EXPECTS(e.weight >= 0.0 && e.weight <= 1.0,
                 "preference weight must lie in [0, 1]");
    }
    std::sort(row.begin(), row.end(),
              [](const OutEdge& a, const OutEdge& b) { return a.to < b.to; });
    // One pass: reject a repeated target, drop zero weights.
    auto out = row.begin();
    for (auto it = row.begin(); it != row.end(); ++it) {
      CR_EXPECTS(it == row.begin() || std::prev(it)->to != it->to,
                 "a row names the same target twice");
      if (it->weight > 0.0) *out++ = *it;
    }
    row.erase(out, row.end());
  }
  g.rows_ = std::move(rows);
  return g;
}

PreferenceGraph PreferenceGraph::from_matrix(const Matrix& weights) {
  CR_EXPECTS(weights.is_square(), "weight matrix must be square");
  PreferenceGraph g(weights.rows());
  for (std::size_t i = 0; i < weights.rows(); ++i) {
    for (std::size_t j = 0; j < weights.cols(); ++j) {
      if (i == j) {
        CR_EXPECTS(weights(i, j) == 0.0,
                   "weight matrix diagonal must be zero");
        continue;
      }
      g.set_weight(i, j, weights(i, j));
    }
  }
  return g;
}

}  // namespace crowdrank
