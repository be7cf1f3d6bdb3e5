// End-to-end tests of the inference engine and the experiment driver.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/smoothing.hpp"
#include "metrics/kendall.hpp"
#include "service/api.hpp"
#include "util/error.hpp"

namespace crowdrank {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.object_count = 20;
  config.selection_ratio = 0.5;
  config.worker_pool_size = 15;
  config.workers_per_task = 3;
  config.worker_quality = {QualityDistribution::Gaussian,
                           QualityLevel::High};
  config.inference.saps.iterations = 800;
  config.seed = 1234;
  return config;
}

TEST(Pipeline, HighQualityWorkersRecoverTruthAlmostExactly) {
  auto config = base_config();
  config.selection_ratio = 1.0;
  const ExperimentResult r = run_experiment(config);
  EXPECT_GT(r.accuracy, 0.97);
}

TEST(Pipeline, ResultIsValidFullRanking) {
  const ExperimentResult r = run_experiment(base_config());
  EXPECT_EQ(r.inference.ranking.size(), 20u);
  EXPECT_EQ(r.truth.size(), 20u);
}

TEST(Pipeline, AccuracyDegradesGracefullyWithWorkerQuality) {
  auto config = base_config();
  config.worker_quality.level = QualityLevel::High;
  const double high = run_experiment(config).accuracy;
  config.worker_quality.level = QualityLevel::Low;
  const double low = run_experiment(config).accuracy;
  EXPECT_GE(high, low - 0.05);
  EXPECT_GT(high, 0.9);
}

TEST(Pipeline, BiggerBudgetHelps) {
  auto config = base_config();
  config.object_count = 30;
  config.worker_quality.level = QualityLevel::Medium;
  config.selection_ratio = 0.15;
  double small_budget = 0.0;
  double large_budget = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    config.seed = seed;
    config.selection_ratio = 0.15;
    small_budget += run_experiment(config).accuracy;
    config.selection_ratio = 0.9;
    large_budget += run_experiment(config).accuracy;
  }
  EXPECT_GE(large_budget, small_budget);
}

TEST(Pipeline, PhaseTimingsCoverAllFourSteps) {
  const ExperimentResult r = run_experiment(base_config());
  const auto& phases = StepTimes::kPhaseNames;
  ASSERT_EQ(phases.size(), 4u);
  EXPECT_STREQ(phases[0], "step1_truth_discovery");
  EXPECT_STREQ(phases[1], "step2_smoothing");
  EXPECT_STREQ(phases[2], "step3_propagation");
  EXPECT_STREQ(phases[3], "step4_find_best_ranking");
  EXPECT_GT(r.inference.timings.total_ms(), 0.0);
}

/// Records every checkpoint the engine fires.
class RecordingControl final : public StageControl {
 public:
  void checkpoint(const StageSnapshot& snapshot) override {
    stages.push_back(snapshot.next);
    readings.push_back(snapshot.at);
  }
  std::vector<PipelineStage> stages;
  std::vector<TimePoint> readings;
};

TEST(Pipeline, StepTimesAreTheDifferencesOfTheBoundaryReadings) {
  RecordingControl control;
  auto config = base_config();
  config.inference.control = &control;
  const ExperimentResult r = run_experiment(config);

  const std::vector<PipelineStage> expected{
      PipelineStage::TruthDiscovery, PipelineStage::Smoothing,
      PipelineStage::Propagation, PipelineStage::RankSearch,
      PipelineStage::Done};
  ASSERT_EQ(control.stages, expected);
  ASSERT_EQ(control.readings.size(), kEngineSteps + 1);
  for (std::size_t i = 0; i < kEngineSteps; ++i) {
    EXPECT_LE(control.readings[i], control.readings[i + 1]);
    // Exactly: the engine and any controller derive a step's time from
    // the same two readings with the same formula.
    EXPECT_EQ(millis_between(control.readings[i], control.readings[i + 1]),
              r.inference.timings.ms[i])
        << StepTimes::kPhaseNames[i];
    EXPECT_EQ(r.inference.timings[control.stages[i]],
              r.inference.timings.ms[i]);
  }
}

TEST(Pipeline, SearchNamesRoundTrip) {
  for (const RankSearchMethod method :
       {RankSearchMethod::Saps, RankSearchMethod::Taps,
        RankSearchMethod::HeldKarp}) {
    const auto parsed = search_from_name(search_name(method));
    ASSERT_TRUE(parsed.has_value()) << search_name(method);
    EXPECT_EQ(*parsed, method);
  }
  EXPECT_STREQ(search_name(RankSearchMethod::HeldKarp), "heldkarp");
  EXPECT_FALSE(search_from_name("held_karp").has_value());
  EXPECT_FALSE(search_from_name("").has_value());
}

TEST(Pipeline, DiagnosticsAreConsistent) {
  const ExperimentResult r = run_experiment(base_config());
  EXPECT_EQ(r.inference.step2.one_edges_smoothed, r.inference.one_edge_count);
  EXPECT_TRUE(r.inference.step2.strongly_connected_after);
  EXPECT_TRUE(r.inference.step3.complete);
  EXPECT_EQ(r.unique_tasks, r.inference.step1.truths.size());
  EXPECT_GT(r.total_cost, 0.0);
}

TEST(Pipeline, ClosureExposedAndNormalized) {
  const ExperimentResult r = run_experiment(base_config());
  ASSERT_EQ(r.inference.closure.rows(), 20u);
  ASSERT_TRUE(r.inference.closure.is_square());
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = i + 1; j < 20; ++j) {
      EXPECT_NEAR(r.inference.closure(i, j) + r.inference.closure(j, i),
                  1.0, 1e-9);
      EXPECT_GT(r.inference.closure(i, j), 0.0);
    }
    EXPECT_DOUBLE_EQ(r.inference.closure(i, i), 0.0);
  }
}

TEST(Pipeline, DeterministicGivenSeed) {
  const ExperimentResult a = run_experiment(base_config());
  const ExperimentResult b = run_experiment(base_config());
  EXPECT_EQ(a.inference.ranking, b.inference.ranking);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(Pipeline, SearchMethodsAgreeOnSmallInstances) {
  auto config = base_config();
  config.object_count = 9;
  config.selection_ratio = 1.0;
  config.inference.search = RankSearchMethod::HeldKarp;
  const ExperimentResult hk = run_experiment(config);
  config.inference.search = RankSearchMethod::Taps;
  const ExperimentResult taps = run_experiment(config);
  // Both exact searches must report the same optimal probability.
  EXPECT_NEAR(hk.inference.log_probability, taps.inference.log_probability,
              1e-9);
  config.inference.search = RankSearchMethod::Saps;
  config.inference.saps.iterations = 2000;
  const ExperimentResult saps = run_experiment(config);
  EXPECT_LE(saps.inference.log_probability,
            hk.inference.log_probability + 1e-9);
  // SAPS should usually match the optimum at this size.
  EXPECT_GT(ranking_accuracy(hk.inference.ranking, saps.inference.ranking),
            0.85);
}

TEST(Pipeline, InferenceEngineRejectsForeignVotes) {
  // Votes referencing a task outside the assignment must be caught.
  Rng rng(5);
  std::vector<Edge> tasks{Edge{0, 1}};
  const HitAssignment assignment(tasks, HitConfig{1, 2}, 3, rng);
  VoteBatch votes{Vote{0, 0, 1, true}, Vote{1, 0, 1, true},
                  Vote{0, 1, 2, true}};  // (1,2) was never assigned
  const InferenceEngine engine;
  EXPECT_THROW(engine.infer(votes, 3, 3, assignment, rng), Error);
}

TEST(Pipeline, TaskListedTwiceIsSmoothedByItsFirstListingsWorkers) {
  // Smoothing (§V-B) estimates a 1-edge's reverse mass from "the workers
  // who answered it". When an assignment lists a task twice, only the
  // first listing's workers answered here, so they alone smooth it: the
  // run matches the one whose workers come from the votes themselves.
  Rng rng(11);
  const std::vector<Edge> tasks{Edge{0, 1}, Edge{1, 2}, Edge{0, 2},
                                Edge{1, 0}};
  const HitAssignment assignment(tasks, HitConfig{1, 2}, 6, rng);
  const auto& first = assignment.workers_for_task(0);
  const auto& again = assignment.workers_for_task(3);
  VoteBatch votes;
  for (std::size_t t = 0; t < 3; ++t) {
    const auto& workers = assignment.workers_for_task(t);
    // Task (0, 1) is unanimous (a 1-edge); on the others the second
    // worker dissents, so the qualities differ.
    votes.push_back(Vote{workers[0], tasks[t].first, tasks[t].second, true});
    votes.push_back(
        Vote{workers[1], tasks[t].first, tasks[t].second, t == 0});
  }
  // No clamp floor to hide a difference in the workers' mean error.
  InferenceConfig config;
  config.smoothing.min_mass = 1e-300;
  const InferenceEngine engine(config);
  Rng run_rng(3);
  const InferenceResult listed = engine.infer(votes, 3, 6, assignment, run_rng);
  Rng voted_rng(3);
  const InferenceResult voted = engine.infer(votes, 3, 6, voted_rng);
  EXPECT_EQ(listed.closure, voted.closure);
  EXPECT_EQ(listed.ranking, voted.ranking);

  // The second listing's workers would smooth (0, 1) differently.
  std::vector<WorkerId> both(first);
  for (const WorkerId k : again) {
    if (std::find(both.begin(), both.end(), k) == both.end()) {
      both.push_back(k);
    }
  }
  ASSERT_NE(both.size(), first.size());
  std::vector<std::vector<WorkerId>> wiring;
  std::vector<std::vector<WorkerId>> union_wiring;
  for (const TaskTruth& truth : listed.step1.truths) {
    const bool task01 = truth.task == Edge{0, 1};
    const auto& workers = assignment.workers_for_task(
        task01 ? 0 : (truth.task == Edge{1, 2} ? 1 : 2));
    wiring.push_back(workers);
    union_wiring.push_back(task01 ? both : workers);
  }
  const PreferenceGraph direct = listed.step1.to_preference_graph(3);
  const PreferenceGraph by_first = smooth_preferences(
      direct, listed.step1, wiring, config.smoothing, nullptr);
  const PreferenceGraph by_union = smooth_preferences(
      direct, listed.step1, union_wiring, config.smoothing, nullptr);
  EXPECT_NE(by_first.weight(1, 0), by_union.weight(1, 0));
}

TEST(Pipeline, ListedWorkerWhoCastNoVoteStillSmoothsTheTask) {
  // §V-B smooths a 1-edge from "the workers who answered it"; with an
  // assignment, those are the task's listed workers. A listed worker who
  // cast no vote on the task still enters its smoothing mass with the
  // quality their other votes earned.
  Rng rng(11);
  const std::vector<Edge> tasks{Edge{0, 1}, Edge{1, 2}, Edge{0, 2}};
  const HitAssignment assignment(tasks, HitConfig{1, 2}, 6, rng);
  const WorkerId voter = assignment.workers_for_task(0)[0];
  const WorkerId silent = assignment.workers_for_task(0)[1];
  std::vector<WorkerId> others;
  for (WorkerId k = 0; k < 6; ++k) {
    if (k != voter && k != silent) others.push_back(k);
  }
  // (0, 1) is unanimous from `voter` alone; `silent` dissents elsewhere,
  // so their quality is below 1 and their expected error positive.
  const VoteBatch votes{
      Vote{voter, 0, 1, true},      Vote{others[0], 1, 2, true},
      Vote{others[1], 1, 2, true},  Vote{silent, 1, 2, false},
      Vote{others[0], 0, 2, true},  Vote{silent, 0, 2, false}};
  InferenceConfig config;
  config.smoothing.min_mass = 1e-300;  // no floor to hide the difference
  const InferenceEngine engine(config);
  Rng run_rng(3);
  const InferenceResult result = engine.infer(votes, 3, 6, assignment, run_rng);
  ASSERT_LT(result.step1.worker_quality[silent], 1.0);

  const auto closure_with = [&](const std::vector<WorkerId>& task01) {
    std::vector<std::vector<WorkerId>> wiring;
    for (const TaskTruth& truth : result.step1.truths) {
      wiring.push_back(truth.task == Edge{0, 1}
                           ? task01
                           : (truth.task == Edge{1, 2}
                                  ? assignment.workers_for_task(1)
                                  : assignment.workers_for_task(2)));
    }
    const PreferenceGraph smoothed = smooth_preferences(
        result.step1.to_preference_graph(3), result.step1, wiring,
        config.smoothing, nullptr);
    return propagate_preferences(smoothed, config.propagation);
  };
  EXPECT_EQ(result.closure, closure_with({voter, silent}));
  EXPECT_NE(result.closure, closure_with({voter}));
}

TEST(Pipeline, ListedWorkerOutsideTheWorkerCountFailsOnlyAUnanimousTask) {
  // Both tasks list workers 0 and 1; only worker 0 votes, and worker_count
  // 1 gives worker 1 no quality. Smoothing reads a task's workers only
  // for a 1-edge, so only a unanimous task makes the listed worker an
  // error.
  Rng rng(2);
  const HitAssignment assignment({Edge{0, 1}, Edge{1, 2}}, HitConfig{1, 2},
                                 2, rng);
  const InferenceEngine engine;
  const VoteBatch contested{Vote{0, 0, 1, true}, Vote{0, 0, 1, false},
                            Vote{0, 1, 2, true}, Vote{0, 2, 1, true}};
  Rng run_rng(3);
  const InferenceResult result =
      engine.infer(contested, 3, 1, assignment, run_rng);
  EXPECT_EQ(result.one_edge_count, 0u);
  const VoteBatch unanimous{Vote{0, 0, 1, true}, Vote{0, 0, 1, false},
                            Vote{0, 1, 2, true}};
  EXPECT_THROW(engine.infer(unanimous, 3, 1, assignment, run_rng), Error);
}

TEST(Pipeline, StrictPathSmoothsEachTaskByItsDistinctVotersInVoteOrder) {
  // repair = false: repeated answers reach the engine. Each task's
  // workers are its distinct voters in first-vote order — one task here
  // has thousands, and the low-quality ones answer it several times, so
  // a list that kept the repeats would weigh them more.
  constexpr std::size_t kWorkers = 3000;
  Rng gen(29);
  VoteBatch votes;
  for (const std::size_t k : gen.permutation(kWorkers)) {
    votes.push_back(Vote{k, 0, 1, true});  // (0, 1) is unanimous
  }
  for (WorkerId k = 0; k < kWorkers; ++k) {
    // Workers 0..99 dissent on (1, 2) and answer (0, 1) twice more.
    votes.push_back(Vote{k, 1, 2, k >= 100});
    if (k < 100) {
      votes.push_back(Vote{k, 1, 0, false});
      votes.push_back(Vote{k, 0, 1, true});
    }
  }
  api::Request request;
  request.votes = votes;
  request.object_count = 3;
  request.worker_count = kWorkers;
  request.repair = false;
  request.inference.smoothing.min_mass = 1e-300;
  const api::Response response = api::rank(request);
  ASSERT_TRUE(response.ok()) << response.reason;
  const InferenceResult& result = *response.inference;

  const auto closure_with = [&](bool distinct) {
    std::vector<std::vector<WorkerId>> wiring(result.step1.truths.size());
    for (const Vote& v : votes) {
      const Edge task = Edge::canonical(v.i, v.j);
      for (std::size_t t = 0; t < wiring.size(); ++t) {
        auto& list = wiring[t];
        if (result.step1.truths[t].task == task &&
            (!distinct ||
             std::find(list.begin(), list.end(), v.worker) == list.end())) {
          list.push_back(v.worker);
        }
      }
    }
    const PreferenceGraph smoothed = smooth_preferences(
        result.step1.to_preference_graph(3), result.step1, wiring,
        request.inference.smoothing, nullptr);
    return propagate_preferences(smoothed, request.inference.propagation);
  };
  EXPECT_EQ(result.closure, closure_with(true));
  EXPECT_NE(result.closure, closure_with(false));
}

TEST(Pipeline, ValidatesExperimentConfig) {
  ExperimentConfig config = base_config();
  config.workers_per_task = 99;  // exceeds pool
  EXPECT_THROW(run_experiment(config), Error);
  config = base_config();
  config.object_count = 1;
  EXPECT_THROW(run_experiment(config), Error);
}

TEST(Pipeline, TinyInstancesWork) {
  // n = 2 and n = 3: the smallest legal problems exercise every boundary
  // (single task, single boundary, single smoothing candidate).
  for (const std::size_t n : {2u, 3u}) {
    ExperimentConfig config;
    config.object_count = n;
    config.selection_ratio = 1.0;
    config.worker_pool_size = 5;
    config.workers_per_task = 3;
    config.worker_quality = {QualityDistribution::Gaussian,
                             QualityLevel::High};
    config.seed = 77 + n;
    const ExperimentResult r = run_experiment(config);
    EXPECT_EQ(r.inference.ranking.size(), n);
    EXPECT_GT(r.accuracy, 0.99) << "n=" << n;  // perfect workers, all pairs
  }
}

TEST(Pipeline, UniformDistributionAlsoWorks) {
  auto config = base_config();
  config.worker_quality = {QualityDistribution::Uniform,
                           QualityLevel::Medium};
  const ExperimentResult r = run_experiment(config);
  EXPECT_GT(r.accuracy, 0.8);
}

TEST(Pipeline, ExactPathsPropagationModeOnSmallInstance) {
  auto config = base_config();
  config.object_count = 8;
  config.selection_ratio = 1.0;
  config.inference.propagation.mode = PropagationMode::ExactPaths;
  config.inference.propagation.max_length = 4;
  const ExperimentResult r = run_experiment(config);
  EXPECT_EQ(r.inference.ranking.size(), 8u);
  EXPECT_GT(r.accuracy, 0.9);
}

TEST(Pipeline, LowBudgetStillProducesFullRanking) {
  auto config = base_config();
  config.object_count = 40;
  config.selection_ratio = 0.06;  // barely above the spanning floor
  const ExperimentResult r = run_experiment(config);
  EXPECT_EQ(r.inference.ranking.size(), 40u);
  EXPECT_GT(r.accuracy, 0.5);  // far better than random even when sparse
}

}  // namespace
}  // namespace crowdrank
