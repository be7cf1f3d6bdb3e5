#include "core/smoothing.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/trace.hpp"

namespace crowdrank {

double worker_sigma_from_quality(double quality) {
  const double q = std::clamp(quality, 1e-9, 1.0);
  return -std::log(q);
}

namespace {

/// Step 2 over the direct weights (w_ij, w_ji) = (x, 1 - x) of each task
/// (i, j) = truths[t].task, building the smoothed graph in one pass:
/// count, reserve, fill. `WorkerLists` is a span of spans or of vectors.
template <typename WorkerLists>
PreferenceGraph smooth(std::size_t n, const TruthDiscoveryResult& step1,
                       WorkerLists assignment_workers,
                       const SmoothingConfig& config, Rng* rng,
                       SmoothingStats* stats) {
  CR_EXPECTS(assignment_workers.size() == step1.truths.size(),
             "need one worker list per discovered task");
  CR_EXPECTS(config.min_mass > 0.0 && config.min_mass <= config.max_mass &&
                 config.max_mass < 0.5,
             "smoothing masses must satisfy 0 < min <= max < 0.5");
  CR_EXPECTS(config.mode == SmoothingMode::ExpectedError || rng != nullptr,
             "SampledError smoothing needs an Rng");

  // Each vertex's task count and its direct in- and out-edges (for the
  // in-/out-node counts before smoothing).
  std::vector<std::size_t> degree(n, 0);
  std::vector<std::size_t> in(n, 0);
  std::vector<std::size_t> out(n, 0);
  for (const TaskTruth& truth : step1.truths) {
    const Edge& task = truth.task;
    CR_EXPECTS(task.first < n && task.second < n,
               "truth references an out-of-range object");
    const double forward = truth.x;
    const double backward = 1.0 - truth.x;
    ++degree[task.first];
    ++degree[task.second];
    out[task.first] += forward > 0.0;
    in[task.second] += forward > 0.0;
    out[task.second] += backward > 0.0;
    in[task.first] += backward > 0.0;
  }
  SmoothingStats local;
  std::vector<std::vector<OutEdge>> rows(n);
  for (std::size_t v = 0; v < n; ++v) {
    rows[v].reserve(degree[v]);
    local.in_nodes_before += in[v] > 0 && out[v] == 0;
    local.out_nodes_before += out[v] > 0 && in[v] == 0;
  }

  // Per-orientation flip counters for the trace: how many 1-edges were
  // softened in the forward (x == 1) vs backward (x == 0) direction.
  metrics::Counter* trace_forward = trace::counter("smoothing.forward_ones");
  metrics::Counter* trace_backward =
      trace::counter("smoothing.backward_ones");
  metrics::Histogram* trace_mass = trace::histogram("smoothing.mass");

  // ExpectedError's err_k depends on the worker alone: one value each.
  std::vector<double> expected_err;
  if (config.mode == SmoothingMode::ExpectedError) {
    expected_err.reserve(step1.worker_quality.size());
    for (const double q : step1.worker_quality) {
      expected_err.push_back(
          math::expected_abs_normal(worker_sigma_from_quality(q)));
    }
  }

  for (std::size_t t = 0; t < step1.truths.size(); ++t) {
    const Edge& task = step1.truths[t].task;
    double forward = step1.truths[t].x;
    double backward = 1.0 - forward;
    // Identify 1-edges in either orientation: w_ij == 1 means i -> j is a
    // 1-edge (j -> i absent); w_ji == 1 the reverse. A forward 1-edge
    // wins.
    const bool forward_one = forward == 1.0;
    if (forward_one || backward == 1.0) {
      const auto& workers = assignment_workers[t];
      CR_EXPECTS(!workers.empty(), "a crowdsourced task must have workers");
      double err_sum = 0.0;
      for (const WorkerId k : workers) {
        CR_EXPECTS(k < step1.worker_quality.size(),
                   "worker id outside the quality vector");
        err_sum += config.mode == SmoothingMode::ExpectedError
                       ? expected_err[k]
                       : std::abs(rng->normal(
                             0.0, worker_sigma_from_quality(
                                      step1.worker_quality[k])));
      }
      const double mass = std::clamp(
          err_sum / static_cast<double>(workers.size()), config.min_mass,
          config.max_mass);
      forward = forward_one ? 1.0 - mass : mass;
      backward = forward_one ? mass : 1.0 - mass;
      if (metrics::Counter* c = forward_one ? trace_forward : trace_backward) {
        c->add(1);
      }
      if (trace_mass != nullptr) trace_mass->observe(mass);
      ++local.one_edges_smoothed;
    }
    rows[task.first].push_back({task.second, forward});
    rows[task.second].push_back({task.first, backward});
  }

  PreferenceGraph smoothed = PreferenceGraph::from_rows(std::move(rows));
  local.strongly_connected_after = smoothed.is_strongly_connected();
  if (metrics::Counter* c = trace::counter("smoothing.one_edges_smoothed")) {
    c->add(local.one_edges_smoothed);
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return smoothed;
}

}  // namespace

PreferenceGraph smooth_preferences(
    const PreferenceGraph& graph, const TruthDiscoveryResult& step1,
    std::span<const std::span<const WorkerId>> assignment_workers,
    const SmoothingConfig& config, Rng* rng, SmoothingStats* stats) {
  return smooth(graph.vertex_count(), step1, assignment_workers, config, rng,
                stats);
}

PreferenceGraph smooth_preferences(
    const PreferenceGraph& graph, const TruthDiscoveryResult& step1,
    std::span<const std::vector<WorkerId>> assignment_workers,
    const SmoothingConfig& config, Rng* rng, SmoothingStats* stats) {
  return smooth(graph.vertex_count(), step1, assignment_workers, config, rng,
                stats);
}

PreferenceGraph smoothed_preference_graph(
    std::size_t n, const TruthDiscoveryResult& step1,
    std::span<const std::span<const WorkerId>> assignment_workers,
    const SmoothingConfig& config, Rng* rng, SmoothingStats* stats) {
  return smooth(n, step1, assignment_workers, config, rng, stats);
}

}  // namespace crowdrank
