// The traced replay: re-executes a prefix of the workload's requests in
// the order service::run_ranking runs them, calling only public
// functions, with a span around each call:
//
//   request
//   ├─ service.cache_key          compute_cache_key
//   ├─ service.cache.lookup       ResultCache::lookup (memory tier)
//   ├─ service.artifact.read      artifact::read_file   (disk tier)
//   ├─ service.artifact.decode    artifact::decode_result
//   ├─ service.cache.promote      ResultCache::insert   (disk hit)
//   ├─ service.harden             harden_votes
//   ├─ core.step1                 discover_truth
//   ├─ core.task_workers          per-task voter lists (engine glue)
//   ├─ core.step2                 to_preference_graph + smooth_preferences
//   ├─ core.step3                 propagate_preferences
//   ├─ core.step4                 saps_search
//   ├─ service.finish             id remap + result assembly
//   ├─ service.cache.insert       ResultCache::insert   (memory tier)
//   ├─ service.artifact.encode    artifact::encode
//   └─ service.artifact.write     artifact::write_file
//
// The disk tier is driven through the artifact functions ResultCache
// itself uses, next to a memory-only ResultCache of the same capacity,
// so each tier's cost gets its own span. Every replayed answer must equal
// the timed run's answer for the same request bitwise.
//
// Layers a workload never reaches on its own path (cache hits on
// serve_cold, the whole cache on rank_large) are measured by probes:
// after the replay, the first few answers are keyed, inserted, looked up,
// encoded, written, read and decoded once each, outside any request span.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "bench.hpp"

namespace perfbench {

using namespace crowdrank;
namespace artifact = crowdrank::service::artifact;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t alloc_calls = 0;  ///< allocations inside the span
  std::uint64_t alloc_bytes = 0;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span log. Disabled, it records nothing and costs a branch.
class Recorder {
 public:
  explicit Recorder(std::size_t capacity) {
    spans_.reserve(capacity);
    stack_.reserve(16);
  }

  void set_enabled(bool on) { on_ = on; }

  std::int32_t open(const char* name, std::uint64_t request) {
    if (!on_) {
      return -1;
    }
    const alloc::Counts counts = alloc::read();
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    span.alloc_calls = counts.calls;
    span.alloc_bytes = counts.bytes;
    span.start_ns = now_ns();
    spans_.push_back(span);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(std::int32_t id) {
    if (id < 0) {
      return;
    }
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now_ns();
    const alloc::Counts counts = alloc::read();
    span.alloc_calls = counts.calls - span.alloc_calls;
    span.alloc_bytes = counts.bytes - span.alloc_bytes;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(Recorder& recorder, const char* name, std::uint64_t request)
      : recorder_(recorder), id_(recorder.open(name, request)) {}
  ~Scope() { recorder_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& recorder_;
  std::int32_t id_;
};

/// The replay's result cache: a memory-only ResultCache plus the disk
/// tier driven through the artifact functions.
struct Tiers {
  explicit Tiers(std::string dir) : disk_dir(std::move(dir)) {
    if (!disk_dir.empty()) {
      std::filesystem::remove_all(disk_dir);
      std::filesystem::create_directories(disk_dir);
    }
  }
  service::ResultCache memory{service::ResultCacheConfig{kWarmMemory, "", nullptr}};
  std::string disk_dir;  ///< empty = memory tier only
};

enum class CachePath { None, MemoryHit, DiskHit, Miss };

struct Replayed {
  Answer answer;
  CachePath path = CachePath::None;
  std::size_t votes_dropped = 0;
  std::size_t objects = 0;  ///< n after hardening (cold path only)
  std::size_t step1_iterations = 0;
  PropagationStats step3;
  std::size_t moves_proposed = 0;
  std::size_t moves_accepted = 0;
};

Replayed replay_one(const Workload& w, const RequestSpec& spec,
                    std::uint64_t k, Tiers* tiers, Recorder& rec,
                    Inject inject) {
  const Content& content = w.contents[spec.content];
  const service::HardeningPolicy policy;
  Replayed out;
  Scope root(rec, "request", k);

  service::CacheKey key;
  if (tiers != nullptr) {
    {
      Scope s(rec, "service.cache_key", k);
      key = service::compute_cache_key(content.votes, content.object_count,
                                       0, spec.seed, w.inference, true,
                                       &policy);
    }
    std::optional<service::CachedResult> hit;
    {
      Scope s(rec, "service.cache.lookup", k);
      hit = tiers->memory.lookup(key);
    }
    out.path = hit ? CachePath::MemoryHit : CachePath::Miss;
    if (!hit && !tiers->disk_dir.empty()) {
      artifact::Result<std::string> bytes;
      {
        Scope s(rec, "service.artifact.read", k);
        bytes = artifact::read_file(
            service::ResultCache::artifact_path(tiers->disk_dir, key));
      }
      if (bytes.ok()) {
        artifact::Result<service::CachedResult> decoded;
        {
          Scope s(rec, "service.artifact.decode", k);
          decoded = artifact::decode_result(*bytes.value);
        }
        if (decoded.ok()) {
          Scope s(rec, "service.cache.promote", k);
          tiers->memory.insert(key, *decoded.value);
          hit = std::move(decoded.value);
          out.path = CachePath::DiskHit;
        }
      }
    }
    if (hit) {
      out.answer = answer_of(std::move(*hit));
      return out;
    }
  }

  service::HardeningReport report;
  service::HardenedBatch batch;
  {
    Scope s(rec, "service.harden", k);
    batch = service::harden_votes(content.votes, content.object_count,
                                  policy, &report);
  }
  out.votes_dropped = report.input_votes - report.retained_votes;
  out.answer.hardening = report;
  if (!batch.usable()) {
    out.answer.outcome = service::JobOutcome::Failed;
    return out;
  }
  const std::size_t n = batch.objects.size();
  out.objects = n;
  const InferenceConfig& config = w.inference;
  // Seeded exactly as api::rank and the service executors seed it.
  Rng rng(inject == Inject::ReplayWrongSeed ? spec.seed + 1 : spec.seed);

  TruthDiscoveryResult step1;
  {
    Scope s(rec, "core.step1", k);
    step1 = discover_truth(batch.votes, n, batch.workers.size(),
                           config.truth_discovery);
  }
  out.step1_iterations = step1.iterations;
  std::vector<std::vector<WorkerId>> task_workers;
  {
    // The assignment-free engine entry: a task's workers are those who
    // voted on it, in vote order, listed in truths[] order.
    Scope s(rec, "core.task_workers", k);
    std::map<Edge, std::vector<WorkerId>> by_task;
    for (const Vote& v : batch.votes) {
      auto& workers = by_task[Edge::canonical(v.i, v.j)];
      if (std::find(workers.begin(), workers.end(), v.worker) ==
          workers.end()) {
        workers.push_back(v.worker);
      }
    }
    task_workers.reserve(step1.truths.size());
    for (const TaskTruth& t : step1.truths) {
      task_workers.push_back(by_task.at(t.task));
    }
  }
  PreferenceGraph smoothed(n);
  {
    Scope s(rec, "core.step2", k);
    const PreferenceGraph direct = step1.to_preference_graph(n);
    smoothed = smooth_preferences(direct, step1, task_workers,
                                  config.smoothing, &rng, nullptr);
  }
  Matrix closure;
  {
    Scope s(rec, "core.step3", k);
    closure = propagate_preferences(smoothed, config.propagation, &out.step3);
  }
  SapsResult saps;
  {
    Scope s(rec, "core.step4", k);
    saps = saps_search(closure, config.saps, rng);
  }
  out.moves_proposed = saps.moves_proposed;
  out.moves_accepted = saps.moves_accepted;
  {
    Scope s(rec, "service.finish", k);
    out.answer.order.assign(saps.best_path.begin(), saps.best_path.end());
    for (VertexId& v : out.answer.order) {
      v = batch.objects[v];
    }
    out.answer.log_probability = -saps.log_cost;
    out.answer.outcome = report.excluded_objects.empty()
                             ? service::JobOutcome::Completed
                             : service::JobOutcome::Degraded;
  }

  if (tiers != nullptr) {
    service::CachedResult cached;
    {
      Scope s(rec, "service.cache.insert", k);
      cached = to_cached(out.answer);
      tiers->memory.insert(key, cached);
    }
    if (!tiers->disk_dir.empty()) {
      std::string bytes;
      {
        Scope s(rec, "service.artifact.encode", k);
        bytes = artifact::encode(cached);
      }
      Scope s(rec, "service.artifact.write", k);
      artifact::write_file(
          service::ResultCache::artifact_path(tiers->disk_dir, key), bytes);
    }
  }
  return out;
}

/// One pass over the replay prefix, traced or not. Served workloads run
/// like an executor: kernels inline on this thread, scratch from a
/// per-job arena. serve_warm's warm-up requests fill the tiers first,
/// untraced and outside the pass wall, as in the timed run.
struct Pass {
  std::vector<Replayed> replayed;
  double wall_s = 0.0;
};

Pass replay_pass(const Workload& w, std::size_t count, Recorder& rec,
                 const std::string& disk_dir, Inject inject, bool traced) {
  Pass pass;
  pass.replayed.reserve(count);
  std::optional<Tiers> tiers;
  std::optional<InlineRegion> inline_region;
  std::optional<Arena> arena;
  if (w.served()) {
    tiers.emplace(w.kind == WorkloadKind::ServeWarm ? disk_dir : "");
    inline_region.emplace();
    arena.emplace();
  }
  const auto replay = [&](const RequestSpec& spec, std::uint64_t k) {
    if (!arena) {
      return replay_one(w, spec, k, nullptr, rec, inject);
    }
    Replayed out;
    {
      arena::Scope scope(*arena);
      out = replay_one(w, spec, k, &*tiers, rec, inject);
    }
    arena->reset();
    return out;
  };
  for (std::uint64_t j = 0; j < w.warmup_requests(); ++j) {
    replay(w.warmup_request(j), j);
  }

  rec.set_enabled(traced);
  alloc::set_counting(traced);
  const auto start = Clock::now();
  for (std::uint64_t k = 0; k < count; ++k) {
    pass.replayed.push_back(replay(w.request(k), k));
  }
  pass.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  rec.set_enabled(false);
  alloc::set_counting(false);
  return pass;
}

/// Times every cache and artifact layer once on each of `answers`,
/// outside any request span (spans named "probe.*").
void probe_layers(const Workload& w, const std::vector<Replayed>& answers,
                  Recorder& rec, const std::string& dir,
                  ReplayReport& report) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  service::ResultCache memory(service::ResultCacheConfig{kWarmMemory, "", nullptr});
  const service::HardeningPolicy policy;
  for (std::uint64_t k = 0; k < answers.size(); ++k) {
    const RequestSpec spec = w.request(k);
    const Content& content = w.contents[spec.content];
    service::CacheKey key;
    {
      Scope s(rec, "probe.cache_key", k);
      key = service::compute_cache_key(content.votes, content.object_count,
                                       0, spec.seed, w.inference, true,
                                       &policy);
    }
    const service::CachedResult cached = to_cached(answers[k].answer);
    {
      Scope s(rec, "probe.cache.insert", k);
      memory.insert(key, cached);
    }
    {
      Scope s(rec, "probe.cache.lookup", k);
      (void)memory.lookup(key);
    }
    std::string bytes;
    {
      Scope s(rec, "probe.artifact.encode", k);
      bytes = artifact::encode(cached);
    }
    const std::string path = service::ResultCache::artifact_path(dir, key);
    {
      Scope s(rec, "probe.artifact.write", k);
      artifact::write_file(path, bytes);
    }
    artifact::Result<std::string> loaded;
    {
      Scope s(rec, "probe.artifact.read", k);
      loaded = artifact::read_file(path);
    }
    artifact::Result<service::CachedResult> decoded;
    if (loaded.ok()) {
      Scope s(rec, "probe.artifact.decode", k);
      decoded = artifact::decode_result(*loaded.value);
    }
    if (!decoded.ok() || !(*decoded.value == cached)) {
      ++report.probe_failures;
      report.failures.push_back("request " + std::to_string(k) +
                         ": artifact round trip changed the result");
    }
  }
  std::filesystem::remove_all(dir);
}

/// Per-name span aggregates, optionally restricted to some requests.
struct Agg {
  double total_us = 0.0;
  std::size_t count = 0;
  double mean_us() const {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// 2n^3 flops per dense n x n product; the doubling runs one product per
/// step plus the squaring on every step but the last (propagation.cpp).
double dense_gflop(std::size_t n, const PropagationStats& s,
                   std::size_t horizon) {
  if (s.densify_step == 0) {
    return 0.0;
  }
  const double per_product = 2.0 * static_cast<double>(n) *
                             static_cast<double>(n) * static_cast<double>(n);
  double products = 0.0;
  for (std::size_t step = s.densify_step; step <= s.doubling_steps; ++step) {
    const std::size_t length_after = std::size_t{1} << step;
    products += length_after >= horizon ? 1.0 : 2.0;
  }
  return products * per_product / 1e9;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.us();
    }
  }
  std::ofstream out(path);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"parent\":%d,\"request\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"dur_us\":%.3f,\"self_us\":%.3f,"
                  "\"alloc_calls\":%llu,\"alloc_bytes\":%llu}\n",
                  i, s.parent, static_cast<unsigned long long>(s.request),
                  s.name, static_cast<double>(s.start_ns - t0) / 1e3, s.us(),
                  s.us() - child_us[i],
                  static_cast<unsigned long long>(s.alloc_calls),
                  static_cast<unsigned long long>(s.alloc_bytes));
    out << line;
  }
}

}  // namespace

ReplayReport run_replay(const Workload& w, const TimedRun& timed,
                        const CrowdTimes& crowd, const std::string& out_dir,
                        Inject inject) {
  ReplayReport report;
  const std::size_t count = std::min(w.replay_requests(), timed.prefix.size());
  constexpr std::size_t kProbes = 16;
  Recorder rec(count * 20 + kProbes * 10 + 64);
  const std::string tier_dir = out_dir + "/replay-tier";

  // Untraced pass first (the overhead baseline), then the traced pass.
  const Pass plain = replay_pass(w, count, rec, tier_dir, inject, false);
  const Pass traced = replay_pass(w, count, rec, tier_dir, inject, true);
  std::filesystem::remove_all(tier_dir);
  std::vector<Replayed> probed(
      traced.replayed.begin(),
      traced.replayed.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(kProbes, traced.replayed.size())));
  rec.set_enabled(true);
  alloc::set_counting(true);
  probe_layers(w, probed, rec, out_dir + "/probe-tier", report);
  alloc::set_counting(false);
  rec.set_enabled(false);

  // Faithfulness: both passes must reproduce the timed run bitwise.
  report.replayed = count;
  for (std::size_t k = 0; k < count; ++k) {
    const bool ok = same_answer(plain.replayed[k].answer, timed.prefix[k]) &&
                    same_answer(traced.replayed[k].answer, timed.prefix[k]);
    if (!ok) {
      ++report.unfaithful;
      if (report.failures.size() < 8) {
        report.failures.push_back("request " + std::to_string(k) +
                                  ": replay differs from the end-to-end "
                                  "answer");
      }
    }
  }

  // -- aggregate the spans ----------------------------------------------
  const std::vector<Span>& spans = rec.spans();
  std::map<std::string, Agg> by_name;
  std::map<std::string, Agg> by_name_path[4];
  std::map<std::string, std::pair<double, double>> alloc_by_name;
  double root_us = 0.0;
  double child_us = 0.0;
  double root_calls = 0.0;
  double root_bytes = 0.0;
  std::size_t roots = 0;
  for (const Span& s : spans) {
    const std::string name = s.name;
    by_name[name].total_us += s.us();
    ++by_name[name].count;
    if (name == "request") {
      root_us += s.us();
      root_calls += static_cast<double>(s.alloc_calls);
      root_bytes += static_cast<double>(s.alloc_bytes);
      ++roots;
      continue;
    }
    if (s.parent >= 0) {
      child_us += s.us();
      auto& a = alloc_by_name[name];
      a.first += static_cast<double>(s.alloc_calls);
      a.second += static_cast<double>(s.alloc_bytes);
      const CachePath path = traced.replayed[s.request].path;
      Agg& agg = by_name_path[static_cast<int>(path)][name];
      agg.total_us += s.us();
      ++agg.count;
    }
  }
  const auto mean_of = [&](const char* name) { return by_name[name].mean_us(); };
  // On-path mean when the workload reaches the layer, else the probe.
  const auto on_path_or_probe = [&](const char* name, const char* probe) {
    return by_name[name].count > 0 ? mean_of(name) : mean_of(probe);
  };
  const auto path_sum = [&](CachePath path, std::initializer_list<const char*> names) {
    std::size_t requests = 0;
    for (const Replayed& r : traced.replayed) {
      requests += r.path == path ? 1 : 0;
    }
    double total = 0.0;
    for (const char* name : names) {
      total += by_name_path[static_cast<int>(path)][name].total_us;
    }
    return requests == 0 ? -1.0 : total / static_cast<double>(requests);
  };
  double lookup_hit_us = path_sum(CachePath::MemoryHit, {"service.cache.lookup"});
  if (lookup_hit_us < 0.0) lookup_hit_us = mean_of("probe.cache.lookup");
  double disk_hit_us = path_sum(
      CachePath::DiskHit, {"service.cache.lookup", "service.artifact.read",
                           "service.artifact.decode", "service.cache.promote"});
  if (disk_hit_us < 0.0) {
    disk_hit_us = mean_of("probe.artifact.read") +
                  mean_of("probe.artifact.decode") +
                  mean_of("probe.cache.insert");
  }
  double insert_us = path_sum(CachePath::Miss, {"service.cache.insert",
                                                "service.artifact.encode",
                                                "service.artifact.write"});
  if (insert_us < 0.0) insert_us = mean_of("probe.cache.insert");

  // Cold-path engine statistics (requests that ran the pipeline).
  double iterations = 0.0, sparse_gflop = 0.0, dense = 0.0, densify = 0.0,
         doubling = 0.0, proposed = 0.0, accepted = 0.0, dropped = 0.0;
  std::size_t cold = 0;
  for (const Replayed& r : traced.replayed) {
    if (r.objects == 0) {
      continue;
    }
    ++cold;
    iterations += static_cast<double>(r.step1_iterations);
    sparse_gflop += static_cast<double>(r.step3.sparse_flops) / 1e9;
    const std::size_t horizon =
        w.inference.propagation.spectral_horizon > 0
            ? w.inference.propagation.spectral_horizon
            : std::max(w.inference.propagation.max_length, r.objects);
    dense += dense_gflop(r.objects, r.step3, horizon);
    densify += static_cast<double>(r.step3.densify_step);
    doubling += static_cast<double>(r.step3.doubling_steps);
    proposed += static_cast<double>(r.moves_proposed);
    accepted += static_cast<double>(r.moves_accepted);
    dropped += static_cast<double>(r.votes_dropped);
  }
  const double cold_n = static_cast<double>(cold);
  const double jobs = static_cast<double>(roots);

  const service::CacheStats& cs = timed.cache;
  const double lookups =
      static_cast<double>(cs.hits + cs.disk_hits + cs.misses);
  const double rounds = static_cast<double>(std::max<std::size_t>(crowd.rounds, 1));

  MetricList& m = report.metrics;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, {value, unit}});
  };
  add("crowd.assign_ms", crowd.assign_ms / rounds, "ms");
  add("crowd.collect_ms", crowd.collect_ms / rounds, "ms");
  add("service.queue_wait_ms_p99", quantile(timed.queue_ms, 0.99), "ms");
  add("service.run_ms_p50", quantile(timed.run_ms, 0.5), "ms");
  add("service.harden_ms", mean_of("service.harden") / 1e3, "ms");
  add("service.harden.votes_dropped", ratio(dropped, cold_n), "count");
  add("service.cache_key_us",
      on_path_or_probe("service.cache_key", "probe.cache_key"), "us");
  add("service.cache.lookup_hit_us", lookup_hit_us, "us");
  add("service.cache.disk_hit_us", disk_hit_us, "us");
  add("service.cache.insert_us", insert_us, "us");
  add("service.cache.mem_hit_ratio", ratio(static_cast<double>(cs.hits), lookups), "1");
  add("service.cache.disk_hit_ratio", ratio(static_cast<double>(cs.disk_hits), lookups), "1");
  add("service.cache.miss_ratio", ratio(static_cast<double>(cs.misses), lookups), "1");
  add("service.cache.evictions", static_cast<double>(cs.evictions), "count");
  add("service.cache.disk_writes", static_cast<double>(cs.disk_writes), "count");
  add("service.cache.disk_errors", static_cast<double>(cs.disk_errors), "count");
  add("service.artifact.encode_us",
      on_path_or_probe("service.artifact.encode", "probe.artifact.encode"), "us");
  add("service.artifact.decode_us",
      on_path_or_probe("service.artifact.decode", "probe.artifact.decode"), "us");
  {
    double bytes = 0.0;
    std::size_t n = 0;
    for (const Replayed& r : probed) {
      bytes += static_cast<double>(artifact::encode(to_cached(r.answer)).size());
      ++n;
    }
    add("service.artifact.bytes", ratio(bytes, static_cast<double>(n)), "B");
  }
  add("core.step1_ms", mean_of("core.step1") / 1e3, "ms");
  add("core.step1.iterations", ratio(iterations, cold_n), "count");
  add("core.step2_ms", mean_of("core.step2") / 1e3, "ms");
  add("core.step3_ms", mean_of("core.step3") / 1e3, "ms");
  add("core.step3.sparse_gflop", ratio(sparse_gflop, cold_n), "GFLOP");
  add("core.step3.dense_gflop_computed", ratio(dense, cold_n), "GFLOP");
  add("core.step3.densify_step", ratio(densify, cold_n), "count");
  add("core.step3.doubling_steps", ratio(doubling, cold_n), "count");
  add("core.step4_ms", mean_of("core.step4") / 1e3, "ms");
  add("core.step4.moves_proposed", ratio(proposed, cold_n), "count");
  add("core.step4.accept_ratio", ratio(accepted, proposed), "1");
  add("util.alloc.calls_per_job", ratio(root_calls, jobs), "count");
  add("util.alloc.bytes_per_job", ratio(root_bytes, jobs), "B");
  const auto alloc_of = [&](const std::vector<const char*>& names) {
    std::pair<double, double> sum{0.0, 0.0};
    for (const char* name : names) {
      sum.first += alloc_by_name[name].first;
      sum.second += alloc_by_name[name].second;
    }
    return std::make_pair(ratio(sum.first, jobs), ratio(sum.second, jobs));
  };
  const std::pair<const char*, std::vector<const char*>> alloc_layers[] = {
      {"cache", {"service.cache_key", "service.cache.lookup",
                 "service.artifact.read", "service.artifact.decode",
                 "service.cache.promote", "service.cache.insert",
                 "service.artifact.encode", "service.artifact.write"}},
      {"harden", {"service.harden"}},
      {"step1", {"core.step1"}},
      {"step2", {"core.task_workers", "core.step2"}},
      {"step3", {"core.step3"}},
      {"step4", {"core.step4", "service.finish"}},
  };
  for (const auto& [layer, names] : alloc_layers) {
    const auto [calls, bytes] = alloc_of(names);
    m.push_back({std::string("util.alloc.") + layer + ".calls_per_job", {calls, "count"}});
    m.push_back({std::string("util.alloc.") + layer + ".bytes_per_job", {bytes, "B"}});
  }
  add("driver.busy_frac", timed.driver_busy_frac, "1");
  add("trace.unattributed_frac", ratio(root_us - child_us, root_us), "1");
  add("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0, "1");
  add("trace.replayed_requests", static_cast<double>(count), "count");

  report.spans_path = out_dir + "/spans-" + workload_name(w.kind) + "-" +
                      std::to_string(w.seed) + ".jsonl";
  write_spans(report.spans_path, spans);
  return report;
}

}  // namespace perfbench
