// Shared declarations of the crowdrank benchmark (see perfbench/README.md).
//
// The benchmark drives the library only through its public headers: it
// generates every input from the workload seed (workload.cpp), runs the
// timed end-to-end loop with tracing off (timed.cpp), and, in the traced
// binary, replays a prefix of the same requests stage by stage with spans
// around each public call (replay.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crowdrank.hpp"

namespace perfbench {

enum class WorkloadKind { ServeCold, ServeWarm, RankLarge };

std::optional<WorkloadKind> parse_workload(std::string_view name);
const char* workload_name(WorkloadKind kind);

/// Deliberate faults for the benchmark's own tests: each must make the
/// run report a failure and exit non-zero.
enum class Inject { None, CorruptRanking, WarmMismatch, ReplayWrongSeed };

std::optional<Inject> parse_inject(std::string_view name);

// -- shape of the workloads ------------------------------------------------

inline constexpr std::size_t kExecutors = 3;       ///< service executors
inline constexpr std::size_t kWindow = 3;          ///< outstanding jobs
inline constexpr std::size_t kColdContents = 384;  ///< serve_cold batches
inline constexpr std::size_t kWarmCatalog = 512;   ///< serve_warm entries
inline constexpr std::size_t kWarmMemory = 64;     ///< memory-tier entries
inline constexpr double kZipfExponent = 1.1;
/// Every kWarmOneOffEvery-th serve_warm request carries a fresh seed, so
/// it always misses: a steady miss share of 3%, several times 1%, keeps
/// p99 among the misses.
inline constexpr std::uint64_t kWarmOneOffEvery = 33;
inline constexpr std::size_t kLargeObjects = 3000;
inline constexpr std::size_t kLargeDegree = 16;
inline constexpr std::size_t kLargeHorizon = 8;
/// rank_large contents, one job each per run at least. A rare content
/// ranks far below the rest, under each engine seed tried (accuracy ~0.2
/// against ~0.9); six distinct contents keep one such content from
/// moving the run's mean accuracy by more than about 0.12.
inline constexpr std::size_t kLargeContents = 6;
inline constexpr std::size_t kSetupRepeats = 5;

/// One simulated non-interactive crowdsourcing round: the votes the
/// library is given, plus the hidden truth used only for scoring.
struct Content {
  crowdrank::VoteBatch votes;
  std::size_t object_count = 0;
  crowdrank::Ranking truth = crowdrank::Ranking::identity(1);
};

/// Wall time spent in the crowd layer while generating contents.
struct CrowdTimes {
  double assign_ms = 0.0;   ///< generate_task_assignment + HitAssignment
  double collect_ms = 0.0;  ///< sample_worker_pool + SimulatedCrowd::collect
  std::size_t rounds = 0;
};

/// Which content a request ranks, and the engine seed it carries.
struct RequestSpec {
  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);
  std::size_t content = 0;
  std::uint64_t seed = 0;
  /// serve_warm catalog entry (== content); kNoEntry for one-off requests.
  std::size_t entry = kNoEntry;
};

struct Workload {
  WorkloadKind kind = WorkloadKind::ServeCold;
  std::uint64_t seed = 0;
  std::vector<Content> contents;
  crowdrank::InferenceConfig inference;
  /// serve_warm: Zipf CDF over popularity ranks (entry r has rank r) and
  /// the fixed engine seed of each entry.
  std::vector<double> zipf_cdf;
  std::vector<std::uint64_t> entry_seed;

  /// Request k of the stream; a pure function of (seed, k).
  RequestSpec request(std::uint64_t k) const;
  /// Untimed requests run before the stream: on serve_warm, one per
  /// catalog entry, so timing starts from a filled cache. None on the
  /// other workloads.
  std::size_t warmup_requests() const;
  RequestSpec warmup_request(std::uint64_t j) const;
  /// Requests the timed loop always completes, whatever --seconds says:
  /// they fix the prefix that accuracy, the digest and the replay use.
  std::size_t min_requests() const;
  /// Requests the traced run replays (a prefix of the stream).
  std::size_t replay_requests() const;
  /// Whether requests go through service::RankingService.
  bool served() const { return kind != WorkloadKind::RankLarge; }
};

Workload make_workload(WorkloadKind kind, std::uint64_t seed,
                       CrowdTimes* times);

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// -- checks -------------------------------------------------------------

/// True when `order` is a permutation of 0..n-1. `seen` is scratch.
bool is_permutation_of(const std::vector<crowdrank::VertexId>& order,
                       std::size_t n, std::vector<char>& seen);

/// The deterministic deliverable of one request.
struct Answer {
  crowdrank::service::JobOutcome outcome =
      crowdrank::service::JobOutcome::Failed;
  std::vector<crowdrank::VertexId> order;
  crowdrank::service::HardeningReport hardening;
  double log_probability = 0.0;
};

/// The Answer carried by a JobResult, an api::Response or a cache record.
template <typename Result>
Answer answer_of(Result result) {
  Answer a;
  a.outcome = result.outcome;
  a.order = std::move(result.ranking.order);
  a.hardening = std::move(result.hardening);
  a.log_probability = result.log_probability;
  return a;
}

/// The cache record of a successful answer, as run_ranking stores it.
crowdrank::service::CachedResult to_cached(const Answer& answer);

/// Bitwise equality (log-probability compared by bit pattern).
bool same_answer(const Answer& a, const Answer& b);

void add_to_digest(crowdrank::StableHash& hash, std::uint64_t k,
                   const Answer& answer);

// -- timed run ------------------------------------------------------------

struct TimedRun {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
  double wall_s = 0.0;
  double driver_busy_frac = 0.0;
  std::vector<double> latency_ms;  ///< submit -> result, per request
  std::vector<double> done_s;      ///< collection time, from the start
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  /// Answers of the first min_requests() requests (scored afterwards).
  std::vector<Answer> prefix;
  crowdrank::service::CacheStats cache;
  /// Peak resident set (MiB) when the fixed prefix had completed: the
  /// service keeps every ticket, so a later peak would grow with the
  /// number of requests a run manages, i.e. with throughput.
  double prefix_peak_rss_mib = 0.0;

  void fail(std::string message);
};

/// RankingService keeps every ticket (the job's votes and its result)
/// until it is destroyed, so a long run would hold gigabytes; the timed
/// loop drains and replaces the service every kServiceRotation requests.
/// The result cache lives outside the service and is kept.
inline constexpr std::size_t kServiceRotation = 4096;

/// The service objects of a served workload (empty for rank_large).
struct Served {
  crowdrank::service::ServiceConfig config;
  std::unique_ptr<crowdrank::service::ResultCache> cache;
  std::unique_ptr<crowdrank::service::RankingService> service;
};

/// Everything set-up builds before the first timed request.
struct Setup {
  Workload workload;
  Served served;
  CrowdTimes crowd;
  double setup_s = 0.0;  ///< median over kSetupRepeats builds
};

/// Builds the workload and its service objects kSetupRepeats times and
/// keeps the last build. serve_warm's disk tier goes under `scratch_dir`.
Setup measure_setup(WorkloadKind kind, std::uint64_t seed,
                    const std::string& scratch_dir);

/// Runs the workload for at least `seconds` (and min_requests()).
TimedRun run_timed(const Workload& workload, Served& served, double seconds,
                   Inject inject);

/// Accuracy (1 - normalized Kendall tau against the simulated truth) of
/// each prefix answer that is a valid ranking.
std::vector<double> prefix_accuracy(const Workload& workload,
                                    const TimedRun& run);
std::string prefix_digest(const TimedRun& run);

// -- statistics ---------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// End-to-end throughput and median latency as medians over consecutive
/// kWindowSeconds windows, so a burst of load from outside the process
/// moves one window, not the run. Runs with too few completions per
/// window (rank_large) use the whole run.
inline constexpr double kWindowSeconds = 2.0;
struct Windowed {
  double jobs_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::vector<double> window_rates;  ///< jobs/s of each window, in order
};
Windowed windowed(const TimedRun& run);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

// -- allocation counting (alloc_counting.cpp / alloc_off.cpp) -------------

namespace alloc {
struct Counts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
/// True in the traced binary, whose global operator new counts.
bool available();
void set_counting(bool on);
Counts read();
}  // namespace alloc

// -- traced replay ------------------------------------------------------------

/// Metric name -> (value, unit), in report order.
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

struct ReplayReport {
  std::size_t replayed = 0;
  std::size_t unfaithful = 0;      ///< replays differing from the timed run
  std::size_t probe_failures = 0;  ///< artifact round trips that changed
  std::vector<std::string> failures;
  MetricList metrics;
  std::string spans_path;
};

/// Replays the first replay_requests() requests, first untraced then
/// traced, checks each against the timed run's answer, and derives the
/// per-layer metrics. Spans are written to `out_dir` at the end.
ReplayReport run_replay(const Workload& workload, const TimedRun& timed,
                        const CrowdTimes& crowd, const std::string& out_dir,
                        Inject inject);

}  // namespace perfbench
