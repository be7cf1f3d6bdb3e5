// Step 3 — computation of indirect pairwise preferences (paper §V-C).
//
// Transitivity turns paths of the smoothed graph into hidden edges: a path
// i -> ... -> j of length >= 2 contributes the product of its edge weights
// to the indirect preference w*_ij, and all contributing paths sum with
// equal importance. The final preference blends direct and indirect
// evidence, w_check = alpha * w + (1 - alpha) * w*, and each ordered pair
// is then normalized so w_ij + w_ji = 1 (the probability constraint of
// Ailon et al.). The result is a complete digraph — hence always
// Hamiltonian (Thm 5.1) — handed to Step 4.
//
// The production propagator sums bounded-length *walks* via matrix powers
// rather than enumerating simple paths (see DESIGN.md substitution #3);
// PropagationMode::ExactPaths provides the literal definition for small n.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/preference_graph.hpp"
#include "util/matrix.hpp"

namespace crowdrank {

/// Which indirect-preference engine to use.
enum class PropagationMode {
  /// sum_{k=2..max_length} W^k — O(max_length * n^3), the default.
  BoundedWalks,
  /// Exhaustive simple-path enumeration — exponential, n <= ~12 only.
  ExactPaths,
  /// sum_{k=1..L} W^k with L the smallest power of two >= max(n,
  /// max_length) (or >= spectral_horizon when set), up to one global
  /// scale. Covers pairs up to graph distance ~n (a bounded horizon leaves
  /// far pairs evidence-free on sparse, path-like task graphs). Two
  /// engines compute the sum; a fixed rule on L, with an underflow guard,
  /// picks one (DESIGN.md §7c):
  ///  * doubling (S(2m) = S(m) + W^m S(m)) with per-step
  ///    max-renormalization, sparse-first on CSR kernels while the state's
  ///    fill stays under fill_threshold, then dense — O(log L * n^3) once
  ///    dense. The auto limit always runs here, as does any horizon that
  ///    does not truncate the sum;
  ///  * row-blocked passes for a truncating horizon: 32 source rows at a
  ///    time, L - 1 sparse gathers X <- X * W over the smoothed graph's
  ///    in-edges — O(n * L * edges) flops, O(n * 32) scratch per worker.
  /// Both are bitwise-identical at any thread count and on either SIMD
  /// backend. The global scale of the sum is lost to the renormalization,
  /// so `alpha` is ignored: direct edges participate through the k = 1
  /// term and the closure is the pair-normalized sum itself.
  SpectralLimit,
};

/// How multiple transitive paths between the same pair combine.
enum class PathAggregation {
  /// w*_ij = sum over paths of the product of weights — §V-C verbatim.
  /// The magnitude grows with path count, so dense graphs dilute direct
  /// evidence after the alpha-blend.
  Sum,
  /// w*_ij = (sum over paths) / (number of paths): "each path has equal
  /// importance" read as an average, keeping w* on the direct weights'
  /// [0,1] scale. Offered for the ablation bench; Sum (the paper's literal
  /// definition) is the default — its magnitude growth flattens the
  /// normalized closure toward uniformity, which is precisely what makes
  /// the max-probability-path objective track the global order instead of
  /// rewarding long confident hops (see bench/ablation_propagation).
  Average,
};

struct PropagationConfig {
  PropagationMode mode = PropagationMode::BoundedWalks;
  PathAggregation aggregation = PathAggregation::Sum;
  /// SpectralLimit doubling only: stored-entry fill ratio of the doubling
  /// state at which it abandons the CSR kernels and finishes densely.
  /// Below ~15-25% fill the Gustavson CSR x CSR product does strictly
  /// less work than the blocked dense kernel; past it the dense kernel's
  /// constant factor wins. 0 forces dense from the first step (the
  /// equivalence oracle the sparse path is pinned against); 1 keeps the
  /// loop sparse throughout. Representation choice only — the sparse and
  /// dense kernels are bitwise-identical on the same operands, so any
  /// threshold yields the same closure (DESIGN.md §7c). The row-blocked
  /// engine never reads it.
  double fill_threshold = 0.20;
  /// SpectralLimit only: walk-length horizon of the sum, rounded up to a
  /// power of two L. 0 (the default) keeps the true spectral limit,
  /// max(max_length, n). A smaller horizon (e.g. 8 with a degree-16
  /// budget) truncates the sum after covering every pair within that
  /// graph distance; when the truncation is real, the row-blocked engine
  /// computes it in O(n * L * edges) instead of doubling to a dense n x n
  /// product. Must be 0 or >= 2.
  std::size_t spectral_horizon = 0;
  /// Maximum transitive path/walk length considered (paper: up to n-1).
  /// Longer horizons push W^k toward its dominant-eigenvector structure, so
  /// the normalized closure approaches a spectral ranking of the smoothed
  /// graph — empirically this is what lifts sparse-budget accuracy to the
  /// paper's reported range (bench/ablation_propagation sweeps L).
  /// Cost is O(max_length * n^3).
  std::size_t max_length = 12;
  /// alpha: weight of the *direct* preference in the final blend.
  double alpha = 0.4;
  /// After normalization each ordered weight is clamped into
  /// [floor, 1 - floor]: a pair with evidence in only one direction would
  /// otherwise produce a zero weight and break the completeness that
  /// Thm 5.1's always-an-HP guarantee rests on.
  double completeness_floor = 1e-6;
};

/// The SpectralLimit engine that computed the walk sum.
enum class SpectralEngine {
  None,        ///< not SpectralLimit mode
  Doubling,    ///< sparse-first doubling
  RowBlocked,  ///< row-blocked sparse passes (truncating horizon)
};

const char* spectral_engine_name(SpectralEngine engine);

/// Step-3 diagnostics.
struct PropagationStats {
  std::size_t pairs_without_evidence = 0;  ///< pairs defaulted to 0.5 / 0.5
  bool complete = false;                   ///< closure is a complete digraph
  // SpectralLimit diagnostics (zero otherwise). Mirrored into the
  // propagation.* trace metrics and the step-3 span so RunReport / BENCH
  // output shows which engine ran and where the doubling switched
  // representation.
  double fill_ratio = 0.0;       ///< doubling-state fill when the loop ended
  std::size_t densify_step = 0;  ///< 1-based step run dense first; 0 = all-sparse
  std::size_t doubling_steps = 0;  ///< doubling steps executed
  /// Flops spent in the CSR kernels (doubling) or the row-blocked passes.
  std::uint64_t sparse_flops = 0;
  SpectralEngine engine = SpectralEngine::None;
};

/// Runs Step 3 on the smoothed graph G~_P and returns the normalized
/// transitive closure G*_P as a dense weight matrix (w_ij + w_ji = 1 for
/// all i != j; diagonal 0). Ordered pairs with neither direct weight nor
/// any bounded-length indirect evidence fall back to the uninformative
/// 0.5 / 0.5 so the closure is always complete.
Matrix propagate_preferences(const PreferenceGraph& smoothed,
                             const PropagationConfig& config,
                             PropagationStats* stats = nullptr);

}  // namespace crowdrank
