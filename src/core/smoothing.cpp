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

/// Both overloads: `WorkerLists` is a span of spans or of vectors.
template <typename WorkerLists>
PreferenceGraph smooth(PreferenceGraph smoothed,
                       const TruthDiscoveryResult& step1,
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

  SmoothingStats local;
  local.in_nodes_before = smoothed.in_nodes().size();
  local.out_nodes_before = smoothed.out_nodes().size();

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
    const TaskTruth& truth = step1.truths[t];
    const VertexId i = truth.task.first;
    const VertexId j = truth.task.second;
    // Identify 1-edges in either orientation: x == 1 means i -> j is a
    // 1-edge (j -> i absent); x == 0 the reverse. A forward 1-edge wins.
    const bool forward_one = smoothed.weight(i, j) == 1.0;
    if (!forward_one && smoothed.weight(j, i) != 1.0) {
      continue;
    }
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
    if (forward_one) {
      smoothed.set_weight(i, j, 1.0 - mass);
      smoothed.set_weight(j, i, mass);
      if (trace_forward != nullptr) trace_forward->add(1);
    } else {
      smoothed.set_weight(j, i, 1.0 - mass);
      smoothed.set_weight(i, j, mass);
      if (trace_backward != nullptr) trace_backward->add(1);
    }
    if (trace_mass != nullptr) trace_mass->observe(mass);
    ++local.one_edges_smoothed;
  }

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
    PreferenceGraph graph, const TruthDiscoveryResult& step1,
    std::span<const std::span<const WorkerId>> assignment_workers,
    const SmoothingConfig& config, Rng* rng, SmoothingStats* stats) {
  return smooth(std::move(graph), step1, assignment_workers, config, rng,
                stats);
}

PreferenceGraph smooth_preferences(
    PreferenceGraph graph, const TruthDiscoveryResult& step1,
    std::span<const std::vector<WorkerId>> assignment_workers,
    const SmoothingConfig& config, Rng* rng, SmoothingStats* stats) {
  return smooth(std::move(graph), step1, assignment_workers, config, rng,
                stats);
}

}  // namespace crowdrank
