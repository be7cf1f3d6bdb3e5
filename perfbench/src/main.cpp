// perfbench: one workload run of the crowdrank benchmark.
//
//   perfbench       --workload W --seed N --seconds S --out-dir D [--inject F]
//   perfbench_trace --workload W --seed N --seconds S --out-dir D [--inject F]
//
// The first binary reports the end-to-end metrics; the second (whose
// global operator new counts allocations) runs the same timed loop and
// then the traced replay, and reports the per-layer metrics. The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
// The exit code is non-zero whenever any output fails its check.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Args {
  WorkloadKind workload = WorkloadKind::ServeCold;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir = ".";
  Inject inject = Inject::None;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload serve_cold|serve_warm|"
               "rank_large --seed N --seconds S --out-dir DIR "
               "[--inject none|corrupt_ranking|warm_mismatch|"
               "replay_wrong_seed]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto kind = parse_workload(value);
        if (!kind) usage("unknown workload " + value);
        args.workload = *kind;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--inject") {
        const auto inject = parse_inject(value);
        if (!inject) usage("unknown fault " + value);
        args.inject = *inject;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  return args;
}

std::string number(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const MetricList& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    line += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " +
            number(value.first) + ", \"unit\": \"" + value.second + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

void print_failures(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::cout << "FAIL " << f << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const bool traced = alloc::available();
  std::filesystem::create_directories(args.out_dir);
  const char* name = workload_name(args.workload);

  Setup setup = measure_setup(args.workload, args.seed, args.out_dir);
  TimedRun timed = run_timed(setup.workload, setup.served, args.seconds,
                             args.inject);
  // The service and its disk tier are done once the clock stops.
  setup.served.service.reset();
  setup.served.cache.reset();
  std::filesystem::remove_all(args.out_dir + "/warm-tier-" +
                              std::to_string(kSetupRepeats - 1));

  const std::vector<double> accuracy = prefix_accuracy(setup.workload, timed);
  const std::string digest = prefix_digest(timed);
  std::cout << "workload " << name << " seed " << args.seed << " ("
            << (traced ? "traced" : "untraced") << ")\n"
            << "requests " << timed.attempted << " in "
            << number(timed.wall_s) << " s, failed " << timed.failed
            << ", failed_frac "
            << number(static_cast<double>(timed.failed) /
                      static_cast<double>(timed.attempted))
            << "\n"
            << "latency samples " << timed.latency_ms.size() << ", whole-run p50 "
            << number(quantile(timed.latency_ms, 0.5)) << " ms, p99 "
            << number(quantile(timed.latency_ms, 0.99)) << " ms"
            << ", driver busy share " << number(timed.driver_busy_frac)
            << "\n"
            << "prefix digest " << digest << " over "
            << timed.prefix.size() << " requests\n"
            << "prefix accuracy mean " << number(mean(accuracy)) << ", min "
            << number(quantile(accuracy, 0.0)) << "\n";
  print_failures(timed.failures);

  if (!traced) {
    const Windowed rate = windowed(timed);
    std::cout << "window jobs/s";
    for (const double r : rate.window_rates) {
      std::cout << " " << static_cast<long>(r);
    }
    std::cout << "\n";
    const MetricList metrics = {
        {"jobs_per_s", {rate.jobs_per_s, "jobs/s"}},
        {"latency_p50_ms", {rate.latency_p50_ms, "ms"}},
        {"latency_p99_ms", {rate.latency_p99_ms, "ms"}},
        {"accuracy_mean", {mean(accuracy), "1"}},
        {"peak_rss_mb", {timed.prefix_peak_rss_mib, "MiB"}},
        {"setup_s", {setup.setup_s, "s"}},
    };
    const bool correct = timed.failed == 0;
    print_result(correct, timed.attempted, timed.failed, metrics);
    return correct ? 0 : 1;
  }

  const ReplayReport replay = run_replay(setup.workload, timed, setup.crowd,
                                         args.out_dir, args.inject);
  std::cout << "replayed " << replay.replayed << " requests, "
            << replay.unfaithful << " unfaithful; spans in "
            << replay.spans_path << "\n";
  print_failures(replay.failures);
  const std::size_t failed =
      timed.failed + replay.unfaithful + replay.probe_failures;
  const bool correct = failed == 0;
  print_result(correct, timed.attempted + replay.replayed, failed,
               replay.metrics);
  return correct ? 0 : 1;
}
