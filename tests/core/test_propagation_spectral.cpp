// Unit tests for the SpectralLimit propagation mode.
#include <gtest/gtest.h>
#include <algorithm>
#include <cmath>
#include <vector>

#include "core/propagation.hpp"
#include "graph/hamiltonian.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace crowdrank {
namespace {

PreferenceGraph smoothed_chain(std::size_t n, double forward = 0.9) {
  PreferenceGraph g(n);
  for (VertexId i = 0; i + 1 < n; ++i) {
    g.set_weight(i, i + 1, forward);
    g.set_weight(i + 1, i, 1.0 - forward);
  }
  return g;
}

PropagationConfig spectral() {
  PropagationConfig config;
  config.mode = PropagationMode::SpectralLimit;
  return config;
}

PropagationConfig bounded_spectral(std::size_t horizon) {
  PropagationConfig config = spectral();
  config.spectral_horizon = horizon;
  return config;
}

/// `tasks` random pairs of a smoothed-graph shape: each pair gets w and
/// 1 - w, with w == 1 (a 1-edge, one direction only) one time in eight.
PreferenceGraph random_smoothed(std::size_t n, std::size_t tasks,
                                std::uint64_t seed) {
  Rng rng(seed);
  PreferenceGraph g(n);
  for (std::size_t t = 0; t < tasks; ++t) {
    const auto i = static_cast<VertexId>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<VertexId>(rng.uniform_int(0, n - 1));
    if (i == j) continue;
    const double w = rng.bernoulli(0.125) ? 1.0 : rng.uniform(0.05, 0.95);
    g.set_weight(i, j, w);
    g.set_weight(j, i, 1.0 - w);
  }
  return g;
}

/// The definition, densely: sum_{k=1..L} W^k with L the horizon rounded up
/// to a power of two, pair-normalized and floored like the closure.
Matrix naive_power_sum_closure(const PreferenceGraph& g, std::size_t horizon,
                               double floor) {
  std::size_t length = 1;
  while (length < horizon) length *= 2;
  const std::size_t n = g.vertex_count();
  const Matrix w = g.to_dense();
  Matrix power = w;
  Matrix sum = w;
  for (std::size_t k = 2; k <= length; ++k) {
    Matrix next(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < n; ++l) {
        for (std::size_t j = 0; j < n; ++j) {
          next(i, j) += power(i, l) * w(l, j);
        }
      }
    }
    power = next;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) sum(i, j) += power(i, j);
    }
  }
  Matrix closure(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double total = sum(i, j) + sum(j, i);
      closure(i, j) = total <= 0.0 ? 0.5
                                   : std::clamp(sum(i, j) / total, floor,
                                                1.0 - floor);
    }
  }
  return closure;
}

/// Two disjoint smoothed chains of `half` vertices each.
PreferenceGraph two_chains(std::size_t half) {
  PreferenceGraph g(2 * half);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t k = 0; k + 1 < half; ++k) {
      const auto i = static_cast<VertexId>(c * half + k);
      g.set_weight(i, i + 1, 0.8);
      g.set_weight(i + 1, i, 0.2);
    }
  }
  return g;
}

TEST(SpectralPropagation, ClosureCompleteAndNormalized) {
  const auto g = smoothed_chain(8);
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, spectral(), &stats);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.pairs_without_evidence, 0u);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) {
        EXPECT_DOUBLE_EQ(closure(i, j), 0.0);
      } else {
        EXPECT_GT(closure(i, j), 0.0);
        EXPECT_NEAR(closure(i, j) + closure(j, i), 1.0, 1e-12);
      }
    }
  }
}

TEST(SpectralPropagation, CoversPairsBeyondBoundedHorizon) {
  // A 40-vertex chain: endpoints are 39 hops apart, far beyond the
  // bounded default horizon — spectral still orients them correctly.
  const auto g = smoothed_chain(40, 0.95);
  const Matrix closure = propagate_preferences(g, spectral(), nullptr);
  EXPECT_GT(closure(0, 39), 0.5);
  EXPECT_GT(closure(0, 20), 0.5);
  EXPECT_GT(closure(19, 39), 0.5);

  // The bounded default (L = 12) has no walk between the endpoints, so it
  // falls back to the uninformative prior there.
  PropagationConfig bounded;
  bounded.mode = PropagationMode::BoundedWalks;
  PropagationStats stats;
  const Matrix b = propagate_preferences(g, bounded, &stats);
  EXPECT_DOUBLE_EQ(b(0, 39), 0.5);
  EXPECT_GT(stats.pairs_without_evidence, 0u);
}

TEST(SpectralPropagation, AgreesWithBoundedOnDenseGraphs) {
  // On a dense smoothed graph both modes orient pairs the same way.
  Rng rng(5);
  PreferenceGraph g(12);
  for (VertexId i = 0; i < 12; ++i) {
    for (VertexId j = i + 1; j < 12; ++j) {
      const double w = (i < j) ? rng.uniform(0.6, 0.95)
                               : rng.uniform(0.05, 0.4);
      g.set_weight(i, j, w);
      g.set_weight(j, i, 1.0 - w);
    }
  }
  PropagationConfig bounded;
  bounded.mode = PropagationMode::BoundedWalks;
  const Matrix mb = propagate_preferences(g, bounded, nullptr);
  const Matrix ms = propagate_preferences(g, spectral(), nullptr);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if (i == j) continue;
      EXPECT_EQ(mb(i, j) > 0.5, ms(i, j) > 0.5) << i << "," << j;
    }
  }
}

TEST(SpectralPropagation, EdgelessGraphFallsBackEverywhere) {
  PreferenceGraph g(5);
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, spectral(), &stats);
  EXPECT_EQ(stats.pairs_without_evidence, 10u);
  EXPECT_DOUBLE_EQ(closure(0, 4), 0.5);
}

TEST(SpectralPropagation, ClosureHamiltonianAlways) {
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = smoothed_chain(7, rng.uniform(0.55, 0.95));
    const Matrix closure = propagate_preferences(g, spectral(), nullptr);
    const PreferenceGraph cg = PreferenceGraph::from_matrix(closure);
    EXPECT_TRUE(cg.is_complete());
    EXPECT_TRUE(has_hamiltonian_path(cg));
  }
}

TEST(SpectralPropagation, SparseHybridMatchesDenseOracleBitwise) {
  // The fill threshold picks a *representation*, never a result: the
  // sparse kernels accumulate in the dense kernels' order, so all-dense
  // (0.0, the pinned oracle), the hybrid default, and all-sparse (1.0)
  // closures must agree bit for bit on the same graph.
  const auto g = smoothed_chain(33, 0.85);
  PropagationConfig dense_oracle = spectral();
  dense_oracle.fill_threshold = 0.0;
  PropagationStats dense_stats;
  const Matrix expected =
      propagate_preferences(g, dense_oracle, &dense_stats);
  EXPECT_EQ(dense_stats.densify_step, 1u);
  EXPECT_EQ(dense_stats.sparse_flops, 0u);
  EXPECT_DOUBLE_EQ(dense_stats.fill_ratio, 1.0);

  for (const double threshold : {0.10, 0.20, 1.0}) {
    PropagationConfig hybrid = spectral();
    hybrid.fill_threshold = threshold;
    PropagationStats stats;
    const Matrix closure = propagate_preferences(g, hybrid, &stats);
    EXPECT_EQ(closure, expected) << "threshold = " << threshold;
    EXPECT_GT(stats.sparse_flops, 0u) << "threshold = " << threshold;
    EXPECT_EQ(stats.doubling_steps, dense_stats.doubling_steps);
  }

  // All-sparse never densifies; the chain's closure fills up, so a small
  // threshold must densify at some step after the first.
  PropagationConfig all_sparse = spectral();
  all_sparse.fill_threshold = 1.0;
  PropagationStats sparse_stats;
  propagate_preferences(g, all_sparse, &sparse_stats);
  EXPECT_EQ(sparse_stats.densify_step, 0u);
  EXPECT_GT(sparse_stats.fill_ratio, 0.0);

  // The 33-chain starts at fill 64/1089 ~ 0.06, and one doubling puts the
  // state past 0.10 — so this threshold runs step 1 sparse and densifies
  // at a later step, exercising the mid-loop handoff.
  PropagationConfig tight = spectral();
  tight.fill_threshold = 0.10;
  PropagationStats tight_stats;
  propagate_preferences(g, tight, &tight_stats);
  EXPECT_GT(tight_stats.densify_step, 1u);
  EXPECT_GT(tight_stats.sparse_flops, 0u);
}

TEST(SpectralPropagation, HorizonTruncatesTheWalkSum) {
  // A 40-chain with horizon 4 covers only pairs within graph distance 4:
  // the endpoints (39 hops apart) fall back to the uninformative prior,
  // while near pairs are still oriented. The full limit covers everything.
  const auto g = smoothed_chain(40, 0.95);
  PropagationConfig truncated = spectral();
  truncated.spectral_horizon = 4;
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, truncated, &stats);
  EXPECT_DOUBLE_EQ(closure(0, 39), 0.5);
  EXPECT_GT(stats.pairs_without_evidence, 0u);
  EXPECT_GT(closure(0, 3), 0.5);
  EXPECT_NEAR(closure(2, 3) + closure(3, 2), 1.0, 1e-12);

  // Horizon >= n is the same sum the auto limit computes (n rounds up to
  // the same power of two), so the closures agree exactly.
  PropagationConfig wide = spectral();
  wide.spectral_horizon = 64;
  const Matrix full = propagate_preferences(g, spectral(), nullptr);
  EXPECT_EQ(propagate_preferences(g, wide, nullptr), full);
}

TEST(SpectralPropagation, EngineFollowsTheSelectionRule) {
  const auto g = smoothed_chain(40, 0.95);
  PropagationStats stats;
  propagate_preferences(g, spectral(), &stats);
  EXPECT_EQ(stats.engine, SpectralEngine::Doubling);
  // 64 rounds up to the auto limit's own power of two: no truncation.
  propagate_preferences(g, bounded_spectral(64), &stats);
  EXPECT_EQ(stats.engine, SpectralEngine::Doubling);
  propagate_preferences(g, bounded_spectral(16), &stats);
  EXPECT_EQ(stats.engine, SpectralEngine::RowBlocked);
  EXPECT_EQ(stats.doubling_steps, 0u);
  EXPECT_EQ(stats.densify_step, 0u);
  // 2 * n * (L - 1) * (m + n) over the 78 chain edges.
  EXPECT_EQ(stats.sparse_flops, 2u * 40u * 15u * (78u + 40u));
  // Every truncating horizon qualifies, however short.
  propagate_preferences(g, bounded_spectral(2), &stats);
  EXPECT_EQ(stats.engine, SpectralEngine::RowBlocked);

  // The underflow guard: a complete 200-graph has row sums up to
  // 199 * 0.99 ~ 2^7.6, so c = 2^-8 and c^L >= 2^-512 holds up to L = 64.
  PreferenceGraph heavy(200);
  for (VertexId i = 0; i < 200; ++i) {
    for (VertexId j = 0; j < 200; ++j) {
      if (i != j) heavy.set_weight(i, j, i < j ? 0.99 : 0.01);
    }
  }
  propagate_preferences(heavy, bounded_spectral(64), &stats);
  EXPECT_EQ(stats.engine, SpectralEngine::RowBlocked);
  propagate_preferences(heavy, bounded_spectral(65), &stats);
  EXPECT_EQ(stats.engine, SpectralEngine::Doubling);
  PropagationStats bounded_walks;
  propagate_preferences(g, PropagationConfig{}, &bounded_walks);
  EXPECT_EQ(bounded_walks.engine, SpectralEngine::None);
  EXPECT_STREQ(spectral_engine_name(SpectralEngine::RowBlocked),
               "row_blocked");
}

TEST(SpectralPropagation, RowBlockedMatchesTheNaivePowerSum) {
  struct Case {
    const char* name;
    PreferenceGraph graph;
    std::size_t horizon;
  };
  const std::vector<Case> cases = {
      {"random 60", random_smoothed(60, 120, 21), 8},
      {"random 97", random_smoothed(97, 150, 22), 5},
      {"chain", smoothed_chain(40, 0.9), 16},
      {"disconnected", two_chains(20), 16},
      {"edgeless", PreferenceGraph(9), 4},
  };
  const double floor = PropagationConfig{}.completeness_floor;
  for (const Case& c : cases) {
    PropagationStats stats;
    const Matrix closure =
        propagate_preferences(c.graph, bounded_spectral(c.horizon), &stats);
    const Matrix oracle =
        naive_power_sum_closure(c.graph, c.horizon, floor);
    EXPECT_LE(Matrix::max_abs_diff(closure, oracle), 1e-12) << c.name;
    if (c.graph.edge_count() > 0) {
      EXPECT_EQ(stats.engine, SpectralEngine::RowBlocked) << c.name;
    }
    std::size_t missing = 0;
    for (std::size_t i = 0; i < oracle.rows(); ++i) {
      for (std::size_t j = i + 1; j < oracle.cols(); ++j) {
        if (oracle(i, j) == 0.5 && oracle(j, i) == 0.5) ++missing;
      }
    }
    EXPECT_EQ(stats.pairs_without_evidence, missing) << c.name;
  }
}

TEST(SpectralPropagation, RowBlockedIsBitwiseStableAcrossThreadsAndBackends) {
  // 200 vertices = 7 panels (the last one partial), several pool tasks.
  const auto g = random_smoothed(200, 800, 23);
  const PropagationConfig config = bounded_spectral(8);
  std::vector<simd::Backend> backends{simd::Backend::Scalar};
  if (simd::avx2_supported()) backends.push_back(simd::Backend::Avx2);

  ASSERT_TRUE(simd::set_backend(simd::Backend::Scalar));
  set_thread_count(1);
  PropagationStats stats;
  const Matrix expected = propagate_preferences(g, config, &stats);
  EXPECT_EQ(stats.engine, SpectralEngine::RowBlocked);
  for (const simd::Backend backend : backends) {
    ASSERT_TRUE(simd::set_backend(backend));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      set_thread_count(threads);
      EXPECT_EQ(propagate_preferences(g, config, nullptr), expected)
          << simd::backend_name(backend) << ", threads = " << threads;
    }
  }
  set_thread_count(configured_thread_count());
  simd::reset_backend();
}

TEST(SpectralPropagation, RejectsInvalidHybridKnobs) {
  const auto g = smoothed_chain(4);
  PropagationConfig bad_threshold = spectral();
  bad_threshold.fill_threshold = 1.5;
  EXPECT_THROW(propagate_preferences(g, bad_threshold, nullptr), Error);
  PropagationConfig bad_horizon = spectral();
  bad_horizon.spectral_horizon = 1;
  EXPECT_THROW(propagate_preferences(g, bad_horizon, nullptr), Error);
}

TEST(SpectralPropagation, NoOverflowOnHeavyGraphs) {
  // Dense near-1 weights: unnormalized W^n would overflow by astronomical
  // margins; the renormalized doubling must stay finite.
  PreferenceGraph g(64);
  for (VertexId i = 0; i < 64; ++i) {
    for (VertexId j = 0; j < 64; ++j) {
      if (i != j) g.set_weight(i, j, i < j ? 0.99 : 0.01);
    }
  }
  for (const std::size_t horizon : {std::size_t{0}, std::size_t{8}}) {
    PropagationStats stats;
    const Matrix closure =
        propagate_preferences(g, bounded_spectral(horizon), &stats);
    for (const double v : closure.data()) {
      EXPECT_TRUE(std::isfinite(v));
    }
    EXPECT_GT(closure(0, 63), 0.5) << "horizon = " << horizon;
    EXPECT_EQ(stats.engine, horizon == 0 ? SpectralEngine::Doubling
                                         : SpectralEngine::RowBlocked);
  }
}

}  // namespace
}  // namespace crowdrank
