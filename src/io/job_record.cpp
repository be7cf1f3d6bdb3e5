#include "io/job_record.hpp"

#include <fstream>
#include <optional>
#include <sstream>

#include "core/checkpoint.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace crowdrank::io {

namespace {

[[noreturn]] void fail(std::size_t line_number, const std::string& what) {
  throw Error("jobs line " + std::to_string(line_number) + ": " + what);
}

std::uint64_t to_uint64(const JsonValue& value, const std::string& key,
                        std::size_t line_number) {
  if (!value.is_number()) {
    fail(line_number, "key \"" + key + "\" must be a number");
  }
  const std::optional<std::uint64_t> out = value.as_uint64();
  if (!out.has_value()) {
    fail(line_number, "key \"" + key + "\": invalid integer '" +
                          value.string + "'");
  }
  return *out;
}

/// The string value of `key`, or a line error carrying `what`.
const std::string& string_value(const JsonValue& value,
                                std::size_t line_number,
                                const std::string& what) {
  if (!value.is_string()) {
    fail(line_number, what);
  }
  return value.string;
}

}  // namespace

std::vector<JobRecord> parse_job_records(const std::string& text) {
  std::vector<JobRecord> records;
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\n\v\f\r") == std::string::npos) {
      continue;  // blank line
    }
    JsonValue object;
    try {
      object = parse_json(line);
    } catch (const Error& e) {
      fail(line_number, e.what());
    }
    if (!object.is_object()) {
      fail(line_number, "expected '{'");
    }
    JobRecord record;
    record.id = records.size() + 1;  // 1-based line ordinal by default
    for (const auto& [key, value] : object.members) {
      if (key == "id") {
        record.id = to_uint64(value, key, line_number);
      } else if (key == "votes") {
        record.votes_path = string_value(
            value, line_number, "key \"votes\" must be a string path");
      } else if (key == "object_count") {
        record.object_count = to_uint64(value, key, line_number);
      } else if (key == "worker_count") {
        record.worker_count = to_uint64(value, key, line_number);
      } else if (key == "seed") {
        record.seed = to_uint64(value, key, line_number);
      } else if (key == "search") {
        record.search = string_value(value, line_number,
                                     "key \"search\" must be a string");
      } else if (key == "saps_iterations") {
        record.saps_iterations = to_uint64(value, key, line_number);
      } else if (key == "deadline_ms") {
        record.deadline_ms = to_uint64(value, key, line_number);
      } else if (key == "fail_before") {
        record.fail_before = string_value(
            value, line_number, "key \"fail_before\" must be a stage name");
        if (!stage_from_name(record.fail_before).has_value()) {
          fail(line_number, "key \"fail_before\": unknown stage '" +
                                record.fail_before + "'");
        }
      } else if (key == "fail_reason") {
        record.fail_reason = string_value(
            value, line_number, "key \"fail_reason\" must be a string");
      } else {
        fail(line_number, "unknown key \"" + key + "\"");
      }
    }
    if (record.votes_path.empty()) {
      fail(line_number, "missing required key \"votes\"");
    }
    records.push_back(std::move(record));
  }
  return records;
}

std::string format_job_record(const JobRecord& record) {
  std::ostringstream os;
  os << "{\"id\": " << record.id << ", \"votes\": ";
  write_json_string(os, record.votes_path);
  if (record.object_count > 0) {
    os << ", \"object_count\": " << record.object_count;
  }
  if (record.worker_count > 0) {
    os << ", \"worker_count\": " << record.worker_count;
  }
  os << ", \"seed\": " << record.seed << ", \"search\": ";
  write_json_string(os, record.search);
  if (record.saps_iterations > 0) {
    os << ", \"saps_iterations\": " << record.saps_iterations;
  }
  if (record.deadline_ms > 0) {
    os << ", \"deadline_ms\": " << record.deadline_ms;
  }
  if (!record.fail_before.empty()) {
    os << ", \"fail_before\": ";
    write_json_string(os, record.fail_before);
    if (!record.fail_reason.empty()) {
      os << ", \"fail_reason\": ";
      write_json_string(os, record.fail_reason);
    }
  }
  os << "}";
  return os.str();
}

std::string format_job_result(const service::JobResult& result,
                              bool include_ranking) {
  std::ostringstream os;
  os << "{\"id\": " << result.id << ", \"outcome\": ";
  write_json_string(os, service::outcome_name(result.outcome));
  os << ", \"stage\": ";
  write_json_string(os, stage_name(result.stage));
  if (!result.reason.empty()) {
    os << ", \"reason\": ";
    write_json_string(os, result.reason);
  }
  const service::HardeningReport& h = result.hardening;
  os << ", \"input_votes\": " << h.input_votes
     << ", \"retained_votes\": " << h.retained_votes
     << ", \"dropped_out_of_range\": " << h.dropped_out_of_range
     << ", \"dropped_self\": " << h.dropped_self
     << ", \"dropped_duplicate\": " << h.dropped_duplicate
     << ", \"dropped_conflicting\": " << h.dropped_conflicting
     << ", \"dropped_disconnected\": " << h.dropped_disconnected
     << ", \"components\": " << h.component_count
     << ", \"excluded_objects\": " << h.excluded_objects.size();
  const bool ranked = result.outcome == service::JobOutcome::Completed ||
                      result.outcome == service::JobOutcome::Degraded;
  if (ranked) {
    os << ", \"log_probability\": ";
    write_json_number(os, result.log_probability);
    if (include_ranking) {
      os << ", \"ranking\": [";
      for (std::size_t p = 0; p < result.ranking.order.size(); ++p) {
        if (p > 0) os << ", ";
        os << result.ranking.order[p];
      }
      os << "]";
    }
  }
  os << ", \"queue_ms\": ";
  write_json_number(os, result.queue_ms);
  os << ", \"run_ms\": ";
  write_json_number(os, result.run_ms);
  os << "}";
  return os.str();
}

std::vector<JobRecord> load_job_records(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw Error("cannot open jobs file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_job_records(buffer.str());
}

}  // namespace crowdrank::io
