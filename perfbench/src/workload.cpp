// Input generation: every content is one simulated round of the paper's
// non-interactive crowdsourcing (task assignment -> HITs -> worker pool ->
// votes), derived from the workload seed alone.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>

#include <sys/resource.h>

#include "bench.hpp"

namespace perfbench {

using namespace crowdrank;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr std::size_t kPoolSize = 30;        // m
constexpr std::size_t kWorkersPerTask = 3;   // w
constexpr std::size_t kComparisonsPerHit = 5;  // c
constexpr double kServeRatio = 0.1;

/// Object count of served content i: n = 50 (40%), 100 (45%), 200 (15%),
/// laid out by a golden-ratio sequence so every stretch of indices has
/// about that mix. The layout is the same for every seed (the seed picks
/// the votes): which n = 200 batches a seed draws, where they fall in
/// the stream and which of them are popular would otherwise move a run's
/// cost by 10-30%. The 40% share keeps the median latency inside the
/// n = 100 class rather than on the boundary between two classes.
std::size_t serve_size(std::size_t i) {
  const double u = std::fmod(static_cast<double>(i) * 0.6180339887498949, 1.0);
  return u < 0.40 ? 50 : (u < 0.85 ? 100 : 200);
}

/// The paper's simulated round, exactly as run_experiment builds it.
Content simulate_round(std::size_t n, double ratio, std::uint64_t seed,
                       CrowdTimes* times) {
  Rng rng(seed);
  Content content;
  content.object_count = n;
  {
    const auto perm = rng.permutation(n);
    content.truth = Ranking(std::vector<VertexId>(perm.begin(), perm.end()));
  }
  const auto assign_start = Clock::now();
  const BudgetModel budget = BudgetModel::for_selection_ratio(
      n, ratio, /*reward_per_comparison=*/0.025, kWorkersPerTask);
  const TaskAssignment tasks =
      generate_task_assignment(n, budget.unique_task_count(), rng);
  const std::vector<Edge> edges(tasks.graph.edges().begin(),
                                tasks.graph.edges().end());
  const HitAssignment assignment(
      edges, HitConfig{kComparisonsPerHit, kWorkersPerTask}, kPoolSize, rng);
  const double assign_ms = ms_since(assign_start);

  const auto collect_start = Clock::now();
  const auto workers = sample_worker_pool(
      kPoolSize,
      WorkerPoolConfig{QualityDistribution::Gaussian, QualityLevel::Medium},
      rng);
  const SimulatedCrowd crowd(content.truth, workers);
  content.votes = crowd.collect(assignment, rng);
  const double collect_ms = ms_since(collect_start);

  if (times != nullptr) {
    times->assign_ms += assign_ms;
    times->collect_ms += collect_ms;
    ++times->rounds;
  }
  return content;
}

double uniform_from(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

Served make_served(const Workload& workload, const std::string& disk_dir) {
  Served served;
  if (!workload.served()) {
    return served;
  }
  service::ResultCacheConfig cache_config;
  if (workload.kind == WorkloadKind::ServeWarm) {
    cache_config.capacity = kWarmMemory;
    cache_config.disk_dir = disk_dir;
  } else {
    // serve_cold never repeats a key; the bound only caps memory.
    cache_config.capacity = kWarmMemory;
  }
  served.cache = std::make_unique<service::ResultCache>(cache_config);
  served.config.worker_count = kExecutors;
  served.config.queue_capacity = 2 * kWindow;
  served.config.cache = served.cache.get();
  served.service = std::make_unique<service::RankingService>(served.config);
  return served;
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  for (const WorkloadKind kind : {WorkloadKind::ServeCold,
                                  WorkloadKind::ServeWarm,
                                  WorkloadKind::RankLarge}) {
    if (name == workload_name(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::ServeCold:
      return "serve_cold";
    case WorkloadKind::ServeWarm:
      return "serve_warm";
    case WorkloadKind::RankLarge:
      return "rank_large";
  }
  return "unknown";
}

std::optional<Inject> parse_inject(std::string_view name) {
  if (name == "none") return Inject::None;
  if (name == "corrupt_ranking") return Inject::CorruptRanking;
  if (name == "warm_mismatch") return Inject::WarmMismatch;
  if (name == "replay_wrong_seed") return Inject::ReplayWrongSeed;
  return std::nullopt;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

RequestSpec Workload::request(std::uint64_t k) const {
  switch (kind) {
    case WorkloadKind::ServeCold:
      // Every request carries its own engine seed: no key ever repeats.
      return {static_cast<std::size_t>(k % contents.size()),
              mix_seed(seed, 0x100000000ULL + k)};
    case WorkloadKind::ServeWarm: {
      if (k % kWarmOneOffEvery == kWarmOneOffEvery - 1) {
        // A catalog content under a seed no other request carries; the
        // j-th one-off takes content j, so one-offs keep the size mix.
        return {static_cast<std::size_t>(k / kWarmOneOffEvery) %
                    contents.size(),
                mix_seed(seed, 0x500000000ULL + k), RequestSpec::kNoEntry};
      }
      const auto it = std::upper_bound(
          zipf_cdf.begin(), zipf_cdf.end(),
          uniform_from(mix_seed(seed, 0x200000000ULL + k)));
      const std::size_t rank = std::min<std::size_t>(
          static_cast<std::size_t>(it - zipf_cdf.begin()),
          zipf_cdf.size() - 1);
      // Catalog entry r is the r-th most popular.
      return {rank, entry_seed[rank], rank};
    }
    case WorkloadKind::RankLarge:
      return {static_cast<std::size_t>(k % contents.size()),
              mix_seed(seed, 0x300000000ULL + k)};
  }
  return {};
}

std::size_t Workload::warmup_requests() const {
  return kind == WorkloadKind::ServeWarm ? kWarmCatalog : 0;
}

RequestSpec Workload::warmup_request(std::uint64_t j) const {
  // Least popular first, so the memory tier ends up holding the most
  // popular entries, as it does in the steady state.
  const std::size_t entry = kWarmCatalog - 1 - static_cast<std::size_t>(j);
  return {entry, entry_seed[entry], entry};
}

std::size_t Workload::min_requests() const {
  switch (kind) {
    case WorkloadKind::ServeCold:
      return 192;
    case WorkloadKind::ServeWarm:
      return 4096;
    case WorkloadKind::RankLarge:
      return kLargeContents;
  }
  return 1;
}

std::size_t Workload::replay_requests() const {
  switch (kind) {
    case WorkloadKind::ServeCold:
      return 96;
    case WorkloadKind::ServeWarm:
      return 4096;
    case WorkloadKind::RankLarge:
      return 2;
  }
  return 1;
}

Workload make_workload(WorkloadKind kind, std::uint64_t seed,
                       CrowdTimes* times) {
  Workload w;
  w.kind = kind;
  w.seed = seed;
  switch (kind) {
    case WorkloadKind::ServeCold:
    case WorkloadKind::ServeWarm: {
      const std::size_t count =
          kind == WorkloadKind::ServeCold ? kColdContents : kWarmCatalog;
      w.contents.reserve(count);
      for (std::size_t c = 0; c < count; ++c) {
        w.contents.push_back(simulate_round(serve_size(c), kServeRatio,
                                            mix_seed(seed, 1000 + c), times));
      }
      break;
    }
    case WorkloadKind::RankLarge: {
      const double ratio = static_cast<double>(kLargeDegree) /
                           static_cast<double>(kLargeObjects - 1);
      for (std::size_t c = 0; c < kLargeContents; ++c) {
        w.contents.push_back(simulate_round(kLargeObjects, ratio,
                                            mix_seed(seed, 1000 + c), times));
      }
      w.inference.propagation.spectral_horizon = kLargeHorizon;
      break;
    }
  }
  if (kind == WorkloadKind::ServeWarm) {
    double total = 0.0;
    w.zipf_cdf.resize(kWarmCatalog);
    for (std::size_t r = 0; r < kWarmCatalog; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      w.zipf_cdf[r] = total;
    }
    for (double& v : w.zipf_cdf) {
      v /= total;
    }
    w.entry_seed.resize(kWarmCatalog);
    for (std::size_t e = 0; e < kWarmCatalog; ++e) {
      w.entry_seed[e] = mix_seed(seed, 0x400000000ULL + e);
    }
  }
  return w;
}

Setup measure_setup(WorkloadKind kind, std::uint64_t seed,
                    const std::string& scratch_dir) {
  namespace fs = std::filesystem;
  Setup setup;
  std::vector<double> walls;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const std::string disk_dir =
        scratch_dir + "/warm-tier-" + std::to_string(rep);
    fs::remove_all(disk_dir);
    // Release the previous build before timing the next one; the
    // service goes first because it holds a pointer to the cache.
    setup.served.service.reset();
    setup.served.cache.reset();
    setup.workload = Workload{};
    CrowdTimes crowd;
    const auto start = Clock::now();
    Workload workload = make_workload(kind, seed, &crowd);
    Served served = make_served(workload, disk_dir);
    walls.push_back(ms_since(start) / 1e3);
    setup.workload = std::move(workload);
    setup.served = std::move(served);
    setup.crowd = crowd;
    if (rep > 0) {
      fs::remove_all(scratch_dir + "/warm-tier-" + std::to_string(rep - 1));
    }
  }
  setup.setup_s = quantile(walls, 0.5);
  return setup;
}

bool is_permutation_of(const std::vector<VertexId>& order, std::size_t n,
                       std::vector<char>& seen) {
  if (order.size() != n) {
    return false;
  }
  seen.assign(n, 0);
  for (const VertexId v : order) {
    if (v >= n || seen[v] != 0) {
      return false;
    }
    seen[v] = 1;
  }
  return true;
}

service::CachedResult to_cached(const Answer& a) {
  service::CachedResult c;
  c.outcome = a.outcome;
  c.stage = PipelineStage::Done;
  c.ranking.order = a.order;
  c.ranking.excluded = a.hardening.excluded_objects;
  c.hardening = a.hardening;
  c.log_probability = a.log_probability;
  return c;
}

bool same_answer(const Answer& a, const Answer& b) {
  return a.outcome == b.outcome && a.order == b.order &&
         a.hardening == b.hardening &&
         std::memcmp(&a.log_probability, &b.log_probability,
                     sizeof(double)) == 0;
}

void add_to_digest(StableHash& hash, std::uint64_t k, const Answer& answer) {
  hash.add_u64(k);
  hash.add_u32(static_cast<std::uint32_t>(answer.outcome));
  hash.add_u64(answer.order.size());
  for (const VertexId v : answer.order) {
    hash.add_u64(v);
  }
  hash.add_double(answer.log_probability);
}

std::vector<double> prefix_accuracy(const Workload& workload,
                                    const TimedRun& run) {
  std::vector<double> accuracy;
  std::vector<char> seen;
  for (std::size_t k = 0; k < run.prefix.size(); ++k) {
    const Content& content = workload.contents[workload.request(k).content];
    const Answer& answer = run.prefix[k];
    if (!is_permutation_of(answer.order, content.object_count, seen)) {
      continue;  // already counted as a failure
    }
    accuracy.push_back(ranking_accuracy(content.truth, Ranking(answer.order)));
  }
  return accuracy;
}

std::string prefix_digest(const TimedRun& run) {
  StableHash hash(0x50455246);  // "PERF"
  for (std::size_t k = 0; k < run.prefix.size(); ++k) {
    add_to_digest(hash, k, run.prefix[k]);
  }
  return hash.digest().hex();
}

void TimedRun::fail(std::string message) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(std::move(message));
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total / static_cast<double>(values.size());
}

Windowed windowed(const TimedRun& run) {
  constexpr std::size_t kMinWindows = 5;
  constexpr std::size_t kMinPerWindow = 50;
  const std::size_t windows =
      static_cast<std::size_t>(run.wall_s / kWindowSeconds);
  std::vector<std::vector<double>> latency(windows);
  for (std::size_t i = 0; i < run.done_s.size(); ++i) {
    const std::size_t w = static_cast<std::size_t>(run.done_s[i] / kWindowSeconds);
    if (w < windows) {
      latency[w].push_back(run.latency_ms[i]);
    }
  }
  std::vector<double> rates;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const std::vector<double>& window : latency) {
    if (window.size() < kMinPerWindow) {
      break;
    }
    rates.push_back(static_cast<double>(window.size()) / kWindowSeconds);
    p50.push_back(quantile(window, 0.5));
    p99.push_back(quantile(window, 0.99));
  }
  if (windows < kMinWindows || rates.size() < windows) {
    return {static_cast<double>(run.attempted) / run.wall_s,
            quantile(run.latency_ms, 0.5), quantile(run.latency_ms, 0.99),
            {}};
  }
  return {quantile(rates, 0.5), quantile(p50, 0.5), quantile(p99, 0.5),
          rates};
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
