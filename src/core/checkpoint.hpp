// Cooperative stage checkpoints for the inference pipeline.
//
// A long-lived serving layer (src/service) needs to deadline, cancel, and
// fault-inject jobs without preemption. The pipeline cooperates: between
// every two stages it calls `StageControl::checkpoint` with a snapshot of
// the work completed so far. A controller aborts the run by throwing from
// the checkpoint — the pipeline performs no stage-spanning mutation, so an
// abort between stages leaves no partial state behind — or records the
// snapshot pointers to capture resumable intermediate output (the Step-1
// truths, the smoothed graph, the closure) before the run continues.
//
// Checkpoints run on the coordinating thread, never inside a parallel
// region, so a throwing checkpoint unwinds without wedging the pool.
//
// Each checkpoint is also the one timing boundary between two stages:
// step times and the service's per-stage telemetry are differences of the
// boundary readings.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "util/timer.hpp"

namespace crowdrank {

struct TruthDiscoveryResult;
class PreferenceGraph;
class Matrix;

/// Lifecycle stages of one ranking job, in execution order. Validation and
/// Hardening are service-level stages (src/service); the inference engine
/// itself checkpoints TruthDiscovery through Done.
enum class PipelineStage {
  Validation,      ///< config/request validation (before any work)
  Hardening,       ///< vote-batch repair (service input hardening)
  TruthDiscovery,  ///< Step 1 (§V-A)
  Smoothing,       ///< Step 2 (§V-B)
  Propagation,     ///< Step 3 (§V-C)
  RankSearch,      ///< Step 4 (§V-D)
  Done,            ///< pipeline finished
};

/// Stable machine-readable stage name ("truth_discovery", ...).
const char* stage_name(PipelineStage stage);

/// Inverse of `stage_name`: nullopt for an unknown name. Used by the
/// serve CLI to accept stage names in jobs files (fault injection).
std::optional<PipelineStage> stage_from_name(std::string_view name);

/// Number of engine steps (TruthDiscovery through RankSearch).
inline constexpr std::size_t kEngineSteps = 4;

/// Position of an engine step in a per-step array: TruthDiscovery -> 0
/// ... RankSearch -> 3.
constexpr std::size_t step_index(PipelineStage stage) {
  return static_cast<std::size_t>(stage) -
         static_cast<std::size_t>(PipelineStage::TruthDiscovery);
}

/// What the pipeline has produced when a checkpoint fires. `next` is the
/// stage about to start (Done once the ranking exists); the pointers fill
/// in as stages complete and stay valid only for the checkpoint call.
struct StageSnapshot {
  PipelineStage next = PipelineStage::TruthDiscovery;
  /// The boundary reading: the stage before `next` ended and `next`
  /// began at this time. Never decreases from one checkpoint to the next.
  TimePoint at;
  const TruthDiscoveryResult* truth = nullptr;  ///< after Step 1
  const PreferenceGraph* smoothed = nullptr;    ///< after Step 2
  const Matrix* closure = nullptr;              ///< after Step 3
};

/// Cooperative control handle. Implementations observe progress and may
/// throw to abort the run between stages (the service layer throws
/// service::JobInterrupt to map aborts onto structured job outcomes).
class StageControl {
 public:
  virtual ~StageControl() = default;
  virtual void checkpoint(const StageSnapshot& snapshot) = 0;
};

}  // namespace crowdrank
