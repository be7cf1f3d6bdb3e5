#include "core/propagation.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/invariants.hpp"
#include "graph/transitive_closure.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/sparse_matrix.hpp"
#include "util/trace.hpp"

namespace crowdrank {

namespace {

/// Rows per pool task in the O(n^2) element-wise passes. Each (i, j) pair
/// with i < j is owned by row i's chunk and writes only closure(i, j) /
/// closure(j, i), so any row partition yields identical results; the
/// evidence counter is an exact integer-sum reduction.
constexpr std::size_t kRowGrain = 16;

/// Smallest power of two >= target: the walk length L both engines sum
/// to (the doubling can only reach powers of two).
std::size_t walk_length(std::size_t target) {
  std::size_t length = 1;
  while (length < target) {
    length *= 2;
  }
  return length;
}

/// Source rows per panel of the row-blocked engine: two 16-wide strips of
/// simd::spmm_row_accum per panel row.
constexpr std::size_t kPanelWidth = 32;

/// The row-blocked engine's per-pass constant c = 2^-e, the largest power
/// of two <= 1 with c * (max row sum of W) < 1. Scaling by a power of two
/// is exact, so the scaled sum is the unscaled one times c^L bit for bit
/// (until an entry would leave the normal range).
double panel_scale(double max_row_sum) {
  return std::min(1.0, std::ldexp(1.0, -(std::ilogb(max_row_sum) + 1)));
}

/// The selection rule (DESIGN.md §7c). The row-blocked engine runs
/// exactly when the horizon truncates the sum (L below the auto limit —
/// otherwise the closure must stay the doubling's, bit for bit) and
/// c^L >= 2^-512 for the panel scale c, so the scaled sum keeps at least
/// ~500 binary orders of magnitude above underflow.
SpectralEngine choose_engine(std::size_t length, std::size_t auto_length,
                             double scale) {
  return length < auto_length &&
                 static_cast<double>(length) * -std::log2(scale) <= 512.0
             ? SpectralEngine::RowBlocked
             : SpectralEngine::Doubling;
}

/// S = c^L * sum_{k=1..L} W^k for a truncating horizon, kPanelWidth source
/// rows at a time. A panel X holds, for its w source rows i_b, the row
/// vectors e_{i_b}^T (cW)^k transposed: X[j * w + b]. Each of the L - 1
/// passes computes X <- X * (cW) as a gather over in-edges — one
/// simd::spmm_row_accum per output row j over the transposed CSR of cW —
/// and folds it into the running sum S_p <- c * S_p + X, so every walk
/// length keeps its weight relative to the exact sum (scaling W by c
/// alone would weight length k by c^k). With c * rowsum(W) < 1 and
/// c <= 1, every panel entry stays < 1 and every sum entry <= L.
///
/// Panels are independent (each worker's run of them shares one O(n * w)
/// scratch) and the kernel vectorizes across the w lanes only, so each
/// output element sees one fixed op sequence: the result is
/// bitwise-identical at any thread count and on both SIMD backends.
Matrix row_blocked_walk_sum(const PreferenceGraph& smoothed,
                            std::size_t length, double scale,
                            PropagationStats& stats) {
  const std::size_t n = smoothed.vertex_count();
  // Transposed CSR of cW: in_ptr[j] .. in_ptr[j + 1] lists j's in-edges
  // (l -> j) by ascending source l.
  std::vector<std::size_t> in_ptr(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (const OutEdge& e : smoothed.out_edges(v)) {
      ++in_ptr[e.to + 1];
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    in_ptr[j + 1] += in_ptr[j];
  }
  const std::size_t m = in_ptr[n];
  std::vector<std::uint32_t> in_src(m);
  std::vector<double> in_weight(m);
  {
    std::vector<std::size_t> next(in_ptr.begin(), in_ptr.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      for (const OutEdge& e : smoothed.out_edges(v)) {
        const std::size_t at = next[e.to]++;
        in_src[at] = static_cast<std::uint32_t>(v);
        in_weight[at] = scale * e.weight;
      }
    }
  }

  // The blocked engine's one dense materialization: the n x n sum itself.
  Matrix sum(n, n, 0.0);  // lint:allow(dense-in-propagation)
  // One contiguous run of panels per worker, so each worker allocates its
  // scratch once. Every panel costs the same L - 1 passes over the graph,
  // so equal runs balance, and a panel's bits never depend on its run.
  const std::size_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  const std::size_t workers = std::max<std::size_t>(1, thread_count());
  const std::size_t grain = (panels + workers - 1) / workers;
  parallel_for(0, panels, grain, [&](std::size_t p0, std::size_t p1) {
    std::vector<double> x(n * kPanelWidth);
    std::vector<double> next(n * kPanelWidth);
    std::vector<double> acc(n * kPanelWidth);
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t i0 = p * kPanelWidth;
      const std::size_t w = std::min(kPanelWidth, n - i0);
      const std::size_t cells = n * w;
      // k = 1: the panel's rows of cW, transposed.
      std::fill_n(x.begin(), cells, 0.0);
      for (std::size_t b = 0; b < w; ++b) {
        for (const OutEdge& e : smoothed.out_edges(i0 + b)) {
          x[e.to * w + b] = scale * e.weight;
        }
      }
      std::copy_n(x.begin(), cells, acc.begin());
      for (std::size_t k = 2; k <= length; ++k) {
        std::fill_n(next.begin(), cells, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
          const std::size_t begin = in_ptr[j];
          simd::spmm_row_accum(next.data() + j * w, in_weight.data() + begin,
                               in_src.data() + begin, in_ptr[j + 1] - begin,
                               x.data(), w, w);
        }
        if (scale != 1.0) {
          simd::scale(acc.data(), scale, cells);
        }
        simd::add(acc.data(), next.data(), cells);
        std::swap(x, next);
      }
      // Transpose the panel into rows i0 .. i0 + w of the sum, a tile of
      // output columns at a time so the panel reads stay cache-resident.
      constexpr std::size_t kTile = 64;
      for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
        const std::size_t j1 = std::min(n, j0 + kTile);
        for (std::size_t b = 0; b < w; ++b) {
          double* row = sum.row(i0 + b).data();
          for (std::size_t j = j0; j < j1; ++j) {
            row[j] = acc[j * w + b];
          }
        }
      }
    }
  });
  stats.sparse_flops = static_cast<std::uint64_t>(2 * n * (m + n)) *
                       static_cast<std::uint64_t>(length - 1);
  return sum;
}

/// S = sum_{k=1..L} W^k by doubling, max-renormalized each step (only the
/// entry *ratios* of S survive, which is all the pair-normalized closure
/// needs).
///
/// Sparse-first hybrid: the doubling starts on the smoothed graph's CSR
/// view and runs on SparseMatrix kernels while the state's fill stays
/// under config.fill_threshold; the moment a step would run past it the
/// state densifies once and the loop finishes on the blocked dense Matrix
/// kernels. The sparse kernels accumulate every output element in the
/// same ascending-k order as the dense ones, so where the representation
/// switches is unobservable in the result — any threshold (including 0,
/// dense from the start: the pinned oracle) produces a bitwise-identical
/// sum. Diagnostics land in `stats` and the propagation.* trace metrics.
Matrix spectral_walk_sum(const PreferenceGraph& smoothed,
                         const PropagationConfig& config,
                         PropagationStats& stats) {
  const std::size_t n = smoothed.vertex_count();
  const std::size_t auto_target = std::max(config.max_length, n);
  const std::size_t target = config.spectral_horizon > 0
                                 ? config.spectral_horizon
                                 : auto_target;

  double max_row_sum = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    double row_sum = 0.0;
    for (const OutEdge& e : smoothed.out_edges(v)) {
      row_sum += e.weight;
    }
    max_row_sum = std::max(max_row_sum, row_sum);
  }
  // Stored weights are positive, so a zero row-sum maximum is the
  // edgeless graph (the doubling's early return handles it).
  if (max_row_sum > 0.0) {
    const std::size_t length = walk_length(target);
    const double scale = panel_scale(max_row_sum);
    if (choose_engine(length, walk_length(auto_target), scale) ==
        SpectralEngine::RowBlocked) {
      stats.engine = SpectralEngine::RowBlocked;
      return row_blocked_walk_sum(smoothed, length, scale, stats);
    }
  }
  stats.engine = SpectralEngine::Doubling;

  // Per-doubling-step trace: the log-scale of W^m ("residual" of the power
  // iteration — how far the high-order terms have decayed), the carry
  // factor that re-injects S(m), a count of the full-matrix max scans, and
  // the sparse state's fill per step. Pure observation of existing state.
  metrics::Counter* trace_steps = trace::counter("propagation.power_steps");
  metrics::Counter* trace_scans =
      trace::counter("propagation.renormalize_scans");
  metrics::Series* trace_lp = trace::series("propagation.lp");
  metrics::Series* trace_carry = trace::series("propagation.carry");
  metrics::Series* trace_fill = trace::series("propagation.fill_ratio");

  const bool validate = analysis::invariant_checks_enabled();

  // The smoothed graph's rows are the natural sparse starting point — no
  // dense scan, just an O(n + m) flattening into CSR arrays.
  std::vector<std::size_t> row_ptr{0};
  std::vector<std::size_t> cols;
  std::vector<double> values;
  for (VertexId v = 0; v < n; ++v) {
    for (const OutEdge& e : smoothed.out_edges(v)) {
      cols.push_back(e.to);
      values.push_back(e.weight);
    }
    row_ptr.push_back(cols.size());
  }
  SparseMatrix s_sparse = SparseMatrix::from_csr(n, n, row_ptr, cols, values);

  const double w_max = s_sparse.max_value();
  if (trace_scans != nullptr) trace_scans->add(1);
  if (w_max <= 0.0) {
    // Edgeless graph: no evidence anywhere.
    return Matrix(n, n, 0.0);  // lint:allow(dense-in-propagation)
  }

  const auto renormalize_dense = [&](Matrix& m) {
    // Parallel exact max-reduce + parallel scale; both are element-disjoint
    // or rounding-free, so the pass is bitwise-stable at any thread count.
    const double max_entry = m.max_value();
    if (max_entry > 0.0) {
      m *= 1.0 / max_entry;
    }
    if (trace_scans != nullptr) trace_scans->add(1);
    return max_entry;
  };
  const auto renormalize_sparse = [&](SparseMatrix& m) {
    // Same scan over the stored entries only: absent entries are zeros,
    // which the dense reduce floors away and the dense scale maps to
    // 0.0 * s == 0.0 — bit-for-bit the dense pass.
    const double max_entry = m.max_value();
    if (max_entry > 0.0) {
      m *= 1.0 / max_entry;
    }
    if (trace_scans != nullptr) trace_scans->add(1);
    return max_entry;
  };

  // Invariants: s_hat ∝ S(m), p_hat = W^m / e^{lp} with max entry 1 —
  // held in exactly one representation at a time.
  renormalize_sparse(s_sparse);
  SparseMatrix p_sparse = s_sparse;
  Matrix s_dense;
  Matrix p_dense;
  double lp = std::log(w_max);
  std::size_t length = 1;
  std::size_t step = 0;
  bool sparse = config.fill_threshold > 0.0;

  // The one sanctioned dense-materialization point of the hybrid: both
  // state matrices cross to the dense representation together, exactly
  // once per run (tools/crowdrank_lint.py bans dense Matrix construction
  // in this file everywhere else).
  const auto densify = [&] {
    if (validate) {
      analysis::check_sparse_matrix(s_sparse);
      analysis::check_sparse_matrix(p_sparse);
    }
    s_dense = s_sparse.to_dense();  // lint:allow(dense-in-propagation)
    p_dense = p_sparse.to_dense();  // lint:allow(dense-in-propagation)
    if (validate) {
      analysis::check_sparse_dense_consistency(s_sparse, s_dense);
      analysis::check_sparse_dense_consistency(p_sparse, p_dense);
    }
    s_sparse = SparseMatrix();
    p_sparse = SparseMatrix();
    sparse = false;
    stats.densify_step = step + 1;
  };

  if (!sparse) {
    densify();  // fill_threshold == 0: the dense oracle, from step one
  }

  while (length < target) {
    // S(2m) = S(m) + W^m * S(m)  ==>  (up to global scale)
    // s' = p_hat * s_hat + e^{-lp} * s_hat.
    if (lp <= -700.0) {
      // W^m is vanishingly small against S(m): the sum has converged.
      break;
    }
    if (sparse) {
      const double fill =
          std::max(s_sparse.fill_ratio(), p_sparse.fill_ratio());
      trace::push_series(trace_fill, static_cast<double>(length), fill);
      if (fill > config.fill_threshold) {
        densify();
      }
    }
    // On the final doubling step p_hat is dead after the s update — the
    // loop exits and only s_hat survives — so its squaring (the single
    // most expensive multiply of the step) is skipped. Applies to both
    // representations alike; no result bit depends on it.
    const bool last = length * 2 >= target;
    const bool carry = lp < 700.0;  // outside this band one term dominates
    ++step;
    if (sparse) {
      std::uint64_t flops = 0;
      // The carry add is fused into the product's row pass, mirroring the
      // dense fused kernel (per element: product terms first, then
      // + carry * s_hat).
      SparseMatrix next =
          carry ? SparseMatrix::multiply_add_scaled(
                      p_sparse, s_sparse, std::exp(-lp), s_sparse, &flops)
                : SparseMatrix::multiply(p_sparse, s_sparse, &flops);
      stats.sparse_flops += flops;
      renormalize_sparse(next);
      s_sparse = std::move(next);
      if (!last) {
        SparseMatrix p_next =
            SparseMatrix::multiply(p_sparse, p_sparse, &flops);
        stats.sparse_flops += flops;
        const double scale = renormalize_sparse(p_next);
        p_sparse = std::move(p_next);
        lp = 2.0 * lp + std::log(std::max(scale, 1e-300));
      }
    } else {
      // The carry add is fused into the product's parallel pass: each row
      // task applies `+ carry * s_hat` right after producing its rows,
      // while they are cache-hot, instead of a second full sweep.
      Matrix next =
          carry ? Matrix::multiply_add_scaled(p_dense, s_dense,
                                              std::exp(-lp), s_dense)
                : Matrix::multiply(p_dense, s_dense);
      renormalize_dense(next);
      s_dense = std::move(next);
      if (!last) {
        Matrix p_next = Matrix::multiply(p_dense, p_dense);
        const double scale = renormalize_dense(p_next);
        p_dense = std::move(p_next);
        lp = 2.0 * lp + std::log(std::max(scale, 1e-300));
      }
    }
    length *= 2;

    if (trace_steps != nullptr) {
      trace_steps->add(1);
      if (!last) {
        const double len = static_cast<double>(length);
        trace::push_series(trace_lp, len, lp);
        trace::push_series(trace_carry, len,
                           lp < 700.0 && lp > -700.0 ? std::exp(-lp) : 0.0);
      }
    }
  }
  stats.doubling_steps = step;
  stats.fill_ratio = sparse ? s_sparse.fill_ratio() : 1.0;
  if (sparse) {
    return s_sparse.to_dense();  // lint:allow(dense-in-propagation)
  }
  return s_dense;
}

}  // namespace

const char* spectral_engine_name(SpectralEngine engine) {
  switch (engine) {
    case SpectralEngine::None:
      return "none";
    case SpectralEngine::Doubling:
      return "doubling";
    case SpectralEngine::RowBlocked:
      return "row_blocked";
  }
  return "unknown";
}

Matrix propagate_preferences(const PreferenceGraph& smoothed,
                             const PropagationConfig& config,
                             PropagationStats* stats) {
  CR_EXPECTS(config.alpha >= 0.0 && config.alpha <= 1.0,
             "alpha must be in [0, 1]");
  CR_EXPECTS(config.max_length >= 2, "indirect paths have length >= 2");
  CR_EXPECTS(config.completeness_floor > 0.0 &&
                 config.completeness_floor < 0.5,
             "completeness floor must be in (0, 0.5)");
  const std::size_t n = smoothed.vertex_count();

  if (config.mode == PropagationMode::SpectralLimit) {
    CR_EXPECTS(config.fill_threshold >= 0.0 && config.fill_threshold <= 1.0,
               "fill threshold must be in [0, 1]");
    CR_EXPECTS(config.spectral_horizon == 0 || config.spectral_horizon >= 2,
               "spectral horizon must be 0 (auto) or >= 2");
    // The doubling sum already contains the direct (k = 1) term and its
    // global scale is normalized away, so the closure is simply the
    // pair-normalized sum (alpha is documented as ignored).
    PropagationStats local;
    Matrix closure = spectral_walk_sum(smoothed, config, local);
    if (metrics::Counter* c = trace::counter("propagation.densify_step")) {
      c->add(local.densify_step);
      trace::counter("propagation.sparse_flops")->add(local.sparse_flops);
    }
    // Pair-normalized in the sum's own storage: each pair (i, j), i < j,
    // belongs to row i's chunk, which reads both of its cells before
    // writing them, and the diagonal cell (i, i) to row i's chunk alone.
    local.pairs_without_evidence = parallel_reduce(
        std::size_t{0}, n, kRowGrain, std::size_t{0},
        [&](std::size_t r0, std::size_t r1) {
          std::size_t missing = 0;
          for (std::size_t i = r0; i < r1; ++i) {
            closure(i, i) = 0.0;
            for (std::size_t j = i + 1; j < n; ++j) {
              double wij = closure(i, j);
              double wji = closure(j, i);
              const double total = wij + wji;
              if (total <= 0.0) {
                wij = 0.5;
                wji = 0.5;
                ++missing;
              } else {
                const double floor = config.completeness_floor;
                wij = std::clamp(wij / total, floor, 1.0 - floor);
                wji = std::clamp(wji / total, floor, 1.0 - floor);
              }
              closure(i, j) = wij;
              closure(j, i) = wji;
            }
          }
          return missing;
        },
        [](std::size_t a, std::size_t b) { return a + b; });
    local.complete = true;
    if (metrics::Counter* c =
            trace::counter("propagation.pairs_without_evidence")) {
      c->add(local.pairs_without_evidence);
    }
    if (stats != nullptr) {
      *stats = local;
    }
    return closure;
  }

  // The bounded-walks / exact-paths engines are inherently dense (they
  // blend against the dense direct matrix pairwise); the sparse-first
  // mandate covers only the SpectralLimit branch above.
  const Matrix direct =
      smoothed.to_dense();  // lint:allow(dense-in-propagation)
  Matrix indirect =
      config.mode == PropagationMode::BoundedWalks
          ? walk_indirect_preferences(direct, config.max_length)
          : exact_indirect_preferences(smoothed, config.max_length);

  if (config.aggregation == PathAggregation::Average) {
    // Divide each pair's walk-sum by the number of contributing walks so
    // w* stays on the direct weights' [0,1] scale. The count matrix reuses
    // the same power-sum over the 0/1 adjacency indicator. Both O(n^2)
    // element-wise passes (indicator build, normalization) run as
    // element-disjoint row blocks on the pool.
    Matrix adjacency(n, n, 0.0);  // lint:allow(dense-in-propagation)
    parallel_for(0, n, kRowGrain, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (direct(i, j) > 0.0) adjacency(i, j) = 1.0;
        }
      }
    });
    const Matrix counts =
        config.mode == PropagationMode::BoundedWalks
            ? walk_indirect_preferences(adjacency, config.max_length)
            : exact_indirect_preferences(
                  PreferenceGraph::from_matrix(adjacency),
                  config.max_length);
    parallel_for(0, n, kRowGrain, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (counts(i, j) > 0.0) {
            indirect(i, j) /= counts(i, j);
          }
        }
      }
    });
  }

  PropagationStats local;
  Matrix closure(n, n, 0.0);  // lint:allow(dense-in-propagation)
  local.pairs_without_evidence = parallel_reduce(
      std::size_t{0}, n, kRowGrain, std::size_t{0},
      [&](std::size_t r0, std::size_t r1) {
        std::size_t missing = 0;
        for (std::size_t i = r0; i < r1; ++i) {
          for (std::size_t j = i + 1; j < n; ++j) {
            double wij = config.alpha * direct(i, j) +
                         (1.0 - config.alpha) * indirect(i, j);
            double wji = config.alpha * direct(j, i) +
                         (1.0 - config.alpha) * indirect(j, i);
            const double total = wij + wji;
            if (total <= 0.0) {
              // No direct vote and no transitive evidence within max_length:
              // uninformative prior keeps the closure complete (Thm 5.1).
              wij = 0.5;
              wji = 0.5;
              ++missing;
            } else {
              wij /= total;
              wji /= total;
              const double floor = config.completeness_floor;
              wij = std::clamp(wij, floor, 1.0 - floor);
              wji = std::clamp(wji, floor, 1.0 - floor);
            }
            closure(i, j) = wij;
            closure(j, i) = wji;
          }
        }
        return missing;
      },
      [](std::size_t a, std::size_t b) { return a + b; });

  // Completeness scan as an AND-reduction over row chunks. Each chunk
  // keeps the serial loop's early exit (it stops at its first hole), and
  // logical AND is exact, so the verdict matches the serial scan at any
  // thread count.
  local.complete = parallel_reduce(
      std::size_t{0}, n, kRowGrain, true,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (i != j && closure(i, j) <= 0.0) {
              return false;
            }
          }
        }
        return true;
      },
      [](bool acc, bool part) { return acc && part; });
  if (metrics::Counter* c =
          trace::counter("propagation.pairs_without_evidence")) {
    c->add(local.pairs_without_evidence);
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return closure;
}

}  // namespace crowdrank
