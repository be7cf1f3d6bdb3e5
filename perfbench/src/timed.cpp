// The timed end-to-end loops, tracing off.
//
// Served workloads: one driver thread keeps kWindow jobs outstanding on a
// RankingService with kExecutors executors, a closed loop that collects
// results in submission order (so a slow job at the head holds the
// window) and submits the next job for each one collected; serve_warm
// runs an untimed warm-up first. rank_large: the driver calls api::rank
// back to back, kernels on the util/parallel pool.
//
// Inside the timed region the driver does only what a client must: copy
// the inputs into the request, submit, collect, and an O(n) permutation
// check (plus, on serve_warm, one comparison against the entry's first
// computation). Accuracy, the digest and all other bookkeeping run after
// the clock stops, over the answers kept for the fixed prefix.
#include <algorithm>
#include <chrono>
#include <deque>
#include <utility>

#include "bench.hpp"

namespace perfbench {

using namespace crowdrank;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A different but still valid ranking: the reverse order.
Answer tampered(const Answer& a) {
  Answer t = a;
  std::reverse(t.order.begin(), t.order.end());
  return t;
}

/// Checks shared by both loops; `k` is the request index.
void check_answer(const Workload& w, const RequestSpec& spec, std::uint64_t k,
                  Answer& answer, TimedRun& run, std::vector<char>& seen,
                  Inject inject) {
  if (inject == Inject::CorruptRanking && k == 1 && answer.order.size() > 1) {
    answer.order[1] = answer.order[0];
  }
  const Content& content = w.contents[spec.content];
  if (answer.outcome != service::JobOutcome::Completed) {
    run.fail("request " + std::to_string(k) + ": outcome " +
             service::outcome_name(answer.outcome));
  } else if (!is_permutation_of(answer.order, content.object_count, seen)) {
    run.fail("request " + std::to_string(k) +
             ": ranking is not a permutation of the requested objects");
  }
}

void run_served(const Workload& w, Served& served, double seconds,
                Inject inject, TimedRun& run) {
  const std::size_t prefix = w.min_requests();
  run.prefix.reserve(prefix);
  const bool warm = w.kind == WorkloadKind::ServeWarm;
  // serve_warm: the first computed answer of each catalog entry.
  std::vector<std::optional<Answer>> reference(warm ? w.contents.size() : 0);
  const std::size_t tampered_entry = 0;  // the most popular entry
  bool tamper_done = false;
  std::vector<char> seen;

  // Outstanding jobs: ticket id, request index, warm-up or timed.
  struct Outstanding {
    std::uint64_t id;
    std::uint64_t k;
    bool timed;
  };
  std::deque<Outstanding> outstanding;
  bool timing = false;
  double waiting_s = 0.0;
  Clock::time_point start = Clock::now();

  const auto submit = [&](const RequestSpec& spec, std::uint64_t k) {
    const Content& content = w.contents[spec.content];
    service::RankingJob job;
    job.votes = content.votes;
    job.object_count = content.object_count;
    job.inference = w.inference;
    job.seed = spec.seed;
    outstanding.push_back({served.service->submit(std::move(job)), k, timing});
  };

  const auto collect_front = [&] {
    const Outstanding front = outstanding.front();
    outstanding.pop_front();
    const RequestSpec spec =
        front.timed ? w.request(front.k) : w.warmup_request(front.k);
    const auto wait_start = Clock::now();
    service::JobResult result = served.service->wait(front.id);
    if (front.timed) {
      waiting_s += seconds_between(wait_start, Clock::now());
      run.done_s.push_back(seconds_between(start, Clock::now()));
      run.latency_ms.push_back(result.queue_ms + result.run_ms);
      run.queue_ms.push_back(result.queue_ms);
      run.run_ms.push_back(result.run_ms);
    }
    ++run.attempted;
    const bool from_cache = result.served_from_cache;
    Answer answer = answer_of(std::move(result));
    check_answer(w, spec, front.k, answer, run, seen, inject);
    if (warm && spec.entry != RequestSpec::kNoEntry) {
      std::optional<Answer>& ref = reference[spec.entry];
      if (ref.has_value()) {
        if (!same_answer(answer, *ref)) {
          run.fail("request " + std::to_string(front.k) + ": catalog entry " +
                   std::to_string(spec.entry) +
                   (from_cache ? " hit" : " recompute") +
                   " differs from its first computation");
        }
      } else if (from_cache) {
        run.fail("request " + std::to_string(front.k) +
                 ": cache hit before any computation of entry " +
                 std::to_string(spec.entry));
      } else {
        ref = answer;
        if (inject == Inject::WarmMismatch && spec.entry == tampered_entry &&
            !tamper_done) {
          // Overwrite the stored result so later hits disagree with the
          // first computation.
          const Content& content = w.contents[spec.entry];
          const service::HardeningPolicy policy;
          served.cache->insert(
              service::compute_cache_key(content.votes,
                                         content.object_count, 0, spec.seed,
                                         w.inference, true, &policy),
              to_cached(tampered(answer)));
          tamper_done = true;
        }
      }
    }
    if (front.timed && run.prefix.size() < prefix) {
      run.prefix.push_back(std::move(answer));
      if (run.prefix.size() == prefix) {
        run.prefix_peak_rss_mib = peak_rss_mib();
      }
    }
  };

  const auto drain_and_replace_service = [&] {
    while (!outstanding.empty()) {
      collect_front();
    }
    served.service.reset();
    served.service = std::make_unique<service::RankingService>(served.config);
  };

  // Untimed warm-up (serve_warm): one request per catalog entry, so the
  // timed phase measures the filled cache rather than how fast it fills.
  for (std::uint64_t j = 0; j < w.warmup_requests(); ++j) {
    if (outstanding.size() == kWindow) {
      collect_front();
    }
    submit(w.warmup_request(j), j);
  }
  if (w.warmup_requests() > 0) {
    drain_and_replace_service();
  }

  const service::CacheStats before = served.cache->stats();
  timing = true;
  start = Clock::now();
  std::uint64_t next = 0;
  const auto want_more = [&] {
    return next < prefix || seconds_between(start, Clock::now()) < seconds;
  };
  while (true) {
    while (outstanding.size() < kWindow && want_more()) {
      if (next > 0 && next % kServiceRotation == 0) {
        drain_and_replace_service();
      }
      submit(w.request(next), next);
      ++next;
    }
    if (outstanding.empty()) {
      break;
    }
    collect_front();
  }
  run.wall_s = seconds_between(start, Clock::now());
  run.driver_busy_frac = 1.0 - waiting_s / run.wall_s;
  // Cache traffic of the timed phase only.
  const service::CacheStats after = served.cache->stats();
  run.cache.hits = after.hits - before.hits;
  run.cache.misses = after.misses - before.misses;
  run.cache.evictions = after.evictions - before.evictions;
  run.cache.insertions = after.insertions - before.insertions;
  run.cache.disk_hits = after.disk_hits - before.disk_hits;
  run.cache.disk_writes = after.disk_writes - before.disk_writes;
  run.cache.disk_errors = after.disk_errors - before.disk_errors;
}

void run_direct(const Workload& w, double seconds, Inject inject,
                TimedRun& run) {
  const std::size_t prefix = w.min_requests();
  std::vector<char> seen;
  double calling_s = 0.0;
  const auto start = Clock::now();
  for (std::uint64_t k = 0;
       k < prefix || seconds_between(start, Clock::now()) < seconds; ++k) {
    const RequestSpec spec = w.request(k);
    const Content& content = w.contents[spec.content];
    const auto due = Clock::now();
    api::Request request;
    request.votes = content.votes;
    request.object_count = content.object_count;
    request.inference = w.inference;
    request.seed = spec.seed;
    const auto call = Clock::now();
    api::Response response = api::rank(request);
    const auto done = Clock::now();
    calling_s += seconds_between(call, done);

    ++run.attempted;
    run.done_s.push_back(seconds_between(start, done));
    run.latency_ms.push_back(seconds_between(call, done) * 1e3);
    // No queue in front of a direct call: the "wait" is the client's own
    // request construction.
    run.queue_ms.push_back(seconds_between(due, call) * 1e3);
    run.run_ms.push_back(seconds_between(call, done) * 1e3);
    Answer answer = answer_of(std::move(response));
    check_answer(w, spec, k, answer, run, seen, inject);
    if (run.prefix.size() < prefix) {
      run.prefix.push_back(std::move(answer));
      if (run.prefix.size() == prefix) {
        run.prefix_peak_rss_mib = peak_rss_mib();
      }
    }
  }
  run.wall_s = seconds_between(start, Clock::now());
  run.driver_busy_frac = 1.0 - calling_s / run.wall_s;
}

}  // namespace

TimedRun run_timed(const Workload& workload, Served& served, double seconds,
                   Inject inject) {
  TimedRun run;
  if (workload.served()) {
    run_served(workload, served, seconds, inject, run);
  } else {
    run_direct(workload, seconds, inject, run);
  }
  return run;
}

}  // namespace perfbench
