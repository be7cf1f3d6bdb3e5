// Unit tests for the preference graph (paper §III, Thm 4.3 vocabulary).
#include "graph/preference_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "graph/scc.hpp"
#include "util/error.hpp"

namespace crowdrank {
namespace {

TEST(PreferenceGraph, StartsEmpty) {
  PreferenceGraph g(3);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 0.0);
}

TEST(PreferenceGraph, WeightsValidated) {
  PreferenceGraph g(3);
  EXPECT_THROW(g.set_weight(0, 0, 0.5), Error);
  EXPECT_THROW(g.set_weight(0, 1, -0.1), Error);
  EXPECT_THROW(g.set_weight(0, 1, 1.1), Error);
  EXPECT_THROW(g.set_weight(0, 9, 0.5), Error);
  g.set_weight(0, 1, 0.7);
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 0.7);
  g.set_weight(0, 1, 0.0);  // removal
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(PreferenceGraph, DirectedSemantics) {
  PreferenceGraph g(3);
  g.set_weight(0, 1, 0.9);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_EQ(g.in_degree(0), 0u);
}

TEST(PreferenceGraph, InAndOutNodes) {
  // Figure 1(b) shape: v2 has only incoming edges -> in-node.
  PreferenceGraph g(4);
  g.set_weight(0, 2, 1.0);
  g.set_weight(1, 2, 1.0);
  g.set_weight(3, 0, 1.0);
  g.set_weight(3, 1, 1.0);
  EXPECT_TRUE(g.is_in_node(2));
  EXPECT_TRUE(g.is_out_node(3));
  EXPECT_FALSE(g.is_in_node(0));
  EXPECT_FALSE(g.is_out_node(0));
  EXPECT_EQ(g.in_nodes(), std::vector<VertexId>{2});
  EXPECT_EQ(g.out_nodes(), std::vector<VertexId>{3});
}

TEST(PreferenceGraph, IsolatedVertexIsNeither) {
  PreferenceGraph g(3);
  g.set_weight(0, 1, 0.6);
  EXPECT_FALSE(g.is_in_node(2));
  EXPECT_FALSE(g.is_out_node(2));
}

TEST(PreferenceGraph, CompletenessCheck) {
  PreferenceGraph g(3);
  EXPECT_FALSE(g.is_complete());
  for (VertexId i = 0; i < 3; ++i) {
    for (VertexId j = 0; j < 3; ++j) {
      if (i != j) g.set_weight(i, j, 0.5);
    }
  }
  EXPECT_TRUE(g.is_complete());
}

TEST(PreferenceGraph, StrongConnectivity) {
  PreferenceGraph cycle(3);
  cycle.set_weight(0, 1, 0.9);
  cycle.set_weight(1, 2, 0.9);
  cycle.set_weight(2, 0, 0.9);
  EXPECT_TRUE(cycle.is_strongly_connected());

  PreferenceGraph chain(3);
  chain.set_weight(0, 1, 0.9);
  chain.set_weight(1, 2, 0.9);
  EXPECT_FALSE(chain.is_strongly_connected());

  // Bidirectional chain (what smoothing produces) is strongly connected.
  chain.set_weight(1, 0, 0.1);
  chain.set_weight(2, 1, 0.1);
  EXPECT_TRUE(chain.is_strongly_connected());
}

TEST(PreferenceGraph, EdgeCountCountsDirectedEdges) {
  PreferenceGraph g(3);
  g.set_weight(0, 1, 0.6);
  g.set_weight(1, 0, 0.4);
  g.set_weight(1, 2, 1.0);
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(PreferenceGraph, FromMatrixRoundTrip) {
  Matrix m(3, 3, 0.0);
  m(0, 1) = 0.8;
  m(1, 0) = 0.2;
  m(2, 0) = 1.0;
  const PreferenceGraph g = PreferenceGraph::from_matrix(m);
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(g.weight(2, 0), 1.0);
  EXPECT_LT(Matrix::max_abs_diff(g.to_dense(), m), 1e-15);
}

TEST(PreferenceGraph, FromMatrixValidates) {
  Matrix rect(2, 3);
  EXPECT_THROW(PreferenceGraph::from_matrix(rect), Error);
  Matrix diag(3, 3, 0.0);
  diag(1, 1) = 0.5;
  EXPECT_THROW(PreferenceGraph::from_matrix(diag), Error);
  Matrix bad(3, 3, 0.0);
  bad(0, 1) = 1.5;
  EXPECT_THROW(PreferenceGraph::from_matrix(bad), Error);
}

TEST(PreferenceGraph, FromRowsSortsAndDropsZeros) {
  std::vector<std::vector<OutEdge>> rows(3);
  rows[0] = {{2, 0.3}, {1, 0.7}};
  rows[1] = {{0, 0.0}};
  rows[2] = {{1, 1.0}, {0, 0.5}};
  PreferenceGraph expected(3);
  expected.set_weight(0, 1, 0.7);
  expected.set_weight(0, 2, 0.3);
  expected.set_weight(2, 0, 0.5);
  expected.set_weight(2, 1, 1.0);
  const PreferenceGraph g = PreferenceGraph::from_rows(std::move(rows));
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.out_degree(1), 0u);
  for (VertexId v = 0; v < 3; ++v) {
    const auto row = g.out_edges(v);
    const auto want = expected.out_edges(v);
    ASSERT_EQ(row.size(), want.size()) << v;
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k].to, want[k].to);
      EXPECT_EQ(row[k].weight, want[k].weight);
    }
  }
}

TEST(PreferenceGraph, FromRowsValidates) {
  const auto build = [](std::vector<OutEdge> row0) {
    std::vector<std::vector<OutEdge>> rows(3);
    rows[0] = std::move(row0);
    return PreferenceGraph::from_rows(std::move(rows));
  };
  EXPECT_THROW(build({{0, 0.5}}), Error);             // self-preference
  EXPECT_THROW(build({{3, 0.5}}), Error);             // out of range
  EXPECT_THROW(build({{1, 1.5}}), Error);             // weight > 1
  EXPECT_THROW(build({{1, 0.5}, {1, 0.4}}), Error);   // repeated target
  EXPECT_THROW(PreferenceGraph::from_rows({{}}), Error);  // n < 2
}

TEST(PreferenceGraph, RejectsTinyGraphs) {
  EXPECT_THROW(PreferenceGraph(1), Error);
}

/// Reference model of the edge set: every set_weight mirrored into an
/// ordered map, with weight 0 erasing the entry.
using EdgeModel = std::map<std::pair<VertexId, VertexId>, double>;

void set_both(PreferenceGraph& g, EdgeModel& model, VertexId from,
              VertexId to, double weight) {
  g.set_weight(from, to, weight);
  if (weight == 0.0) {
    model.erase({from, to});
  } else {
    model[{from, to}] = weight;
  }
}

/// The rows, read back in row-major order, are exactly the model.
void expect_rows_match(const PreferenceGraph& g, const EdgeModel& model) {
  EdgeModel rows;
  std::vector<std::pair<VertexId, VertexId>> order;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    for (const OutEdge& e : g.out_edges(v)) {
      rows[{v, e.to}] = e.weight;
      order.emplace_back(v, e.to);
    }
  }
  EXPECT_EQ(rows, model);
  // Strictly ascending: no pair is >= its successor.
  EXPECT_EQ(std::adjacent_find(order.begin(), order.end(),
                               std::greater_equal<>()),
            order.end());
  EXPECT_EQ(g.edge_count(), model.size());
}

TEST(PreferenceGraphRows, ReflectAddUpdateAndErase) {
  PreferenceGraph g(10);
  EdgeModel model;
  for (VertexId i = 0; i + 1 < 10; ++i) {
    set_both(g, model, i, i + 1, 0.8);
    set_both(g, model, i + 1, i, 0.2);
  }
  expect_rows_match(g, model);

  // Touch a few rows between reads: add, update, and remove edges.
  set_both(g, model, 3, 7, 0.5);   // new edge in the middle of a row
  set_both(g, model, 4, 5, 0.65);  // update an existing edge's weight
  set_both(g, model, 6, 5, 0.0);   // remove an edge
  expect_rows_match(g, model);
  EXPECT_FALSE(g.has_edge(6, 5));

  // A second batch, including a row written again and an erased edge.
  set_both(g, model, 3, 7, 0.0);
  set_both(g, model, 0, 9, 1.0);
  set_both(g, model, 2, 0, 0.3);  // insert ahead of the row's edges
  expect_rows_match(g, model);
}

TEST(PreferenceGraphRows, RepeatedReadsAfterMutationStayFresh) {
  // The smoothing workload: a handful of single-row writes between every
  // read. Each read must reflect all mutations so far.
  PreferenceGraph g(6);
  EdgeModel model;
  set_both(g, model, 0, 1, 1.0);
  for (int round = 0; round < 5; ++round) {
    const auto v = static_cast<VertexId>(round + 1);
    if (v + 1 < 6) {
      set_both(g, model, v, v + 1, 0.5 + 0.05 * round);
    }
    set_both(g, model, 0, 1, 1.0 - 0.1 * round);  // same row every round
    expect_rows_match(g, model);
  }
}

TEST(PreferenceGraphRows, ErasingAnAbsentEdgeIsANoOp) {
  PreferenceGraph g(4);
  EdgeModel model;
  set_both(g, model, 0, 1, 0.9);
  set_both(g, model, 2, 3, 0.4);
  set_both(g, model, 1, 0, 0.0);  // never stored
  set_both(g, model, 2, 1, 0.0);  // row has entries, but not this one
  expect_rows_match(g, model);
  set_both(g, model, 0, 1, 0.0);
  expect_rows_match(g, model);
  EXPECT_TRUE(g.out_edges(0).empty());
}

TEST(PreferenceGraph, LargeSparseGraphStaysLinear) {
  // 2^17 vertices: a dense n x n store would need 128 GiB. Vertices
  // 0 .. kRing - 1 form a bidirectional ring; `sink` is an in-node fed by
  // ring vertex 0, `source` an out-node feeding ring vertex 1.
  constexpr std::size_t kN = std::size_t{1} << 17;
  constexpr std::size_t kRing = kN - 2;
  const VertexId sink = kN - 2;
  const VertexId source = kN - 1;
  PreferenceGraph g(kN);
  for (VertexId v = 0; v < kRing; ++v) {
    const VertexId next = (v + 1) % kRing;
    g.set_weight(v, next, 0.75);
    g.set_weight(next, v, v == 0 ? 1.0 : 0.25);
  }
  g.set_weight(0, sink, 0.5);
  g.set_weight(source, 1, 0.5);

  EXPECT_EQ(g.edge_count(), 2 * kRing + 2);
  EXPECT_EQ(g.in_nodes(), std::vector<VertexId>{sink});
  EXPECT_EQ(g.out_nodes(), std::vector<VertexId>{source});
  EXPECT_TRUE(g.is_in_node(sink));
  EXPECT_TRUE(g.is_out_node(source));
  EXPECT_FALSE(g.is_complete());
  EXPECT_FALSE(g.is_strongly_connected());
  // The ring is one component; sink and source are singletons.
  EXPECT_EQ(strongly_connected_components(g).count(), 3u);

  // Closing the in/out-nodes into the ring makes the whole graph one SCC.
  g.set_weight(sink, 0, 0.5);
  g.set_weight(1, source, 0.5);
  EXPECT_TRUE(g.in_nodes().empty());
  EXPECT_TRUE(g.out_nodes().empty());
  EXPECT_TRUE(g.is_strongly_connected());
  EXPECT_EQ(strongly_connected_components(g).count(), 1u);
}

}  // namespace
}  // namespace crowdrank
