// The one JSON module (util/json.hpp): reader contracts (exact unsigned
// integers, duplicate keys, the fixed nesting cap), writer escaping and
// number rendering, and a seeded mutation test asserting the reader's
// only failure mode on hostile bytes is crowdrank::Error.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

std::string json_string(const std::string& text) {
  std::ostringstream os;
  write_json_string(os, text);
  return os.str();
}

std::string json_number(double value) {
  std::ostringstream os;
  write_json_number(os, value);
  return os.str();
}

void expect_error(const std::string& text, const std::string& needle) {
  try {
    parse_json(text);
    FAIL() << "expected Error for: " << text.substr(0, 80);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Json, ParsesEveryKindInInsertionOrder) {
  const JsonValue v = parse_json(
      " {\"z\": [1, -2.5, true, false, null], \"a\": \"x\\ty\\u0001\","
      " \"o\": {}} ");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
  const JsonValue* z = v.find("z");
  ASSERT_NE(z, nullptr);
  ASSERT_EQ(z->items.size(), 5u);
  EXPECT_DOUBLE_EQ(z->items[1].number, -2.5);
  EXPECT_TRUE(z->items[2].boolean);
  EXPECT_EQ(z->items[4].kind, JsonValue::Kind::Null);
  EXPECT_EQ(v.string_at("a"), std::string("x\ty\x01"));
  EXPECT_TRUE(v.find("o")->is_object());
  expect_error("{\"a\": 1} x", "trailing content");
  expect_error("[1, 2", "unexpected end of input");
}

TEST(Json, UnsignedIntegersAreReadExactlyFromTheSourceText) {
  const JsonValue max = parse_json("18446744073709551615");
  ASSERT_TRUE(max.as_uint64().has_value());
  EXPECT_EQ(*max.as_uint64(), std::numeric_limits<std::uint64_t>::max());
  // The double alone cannot tell 2^53 + 1 from 2^53.
  EXPECT_EQ(parse_json("9007199254740993").as_uint64(),
            std::uint64_t{9007199254740993ULL});
  EXPECT_EQ(parse_json("0").as_uint64(), std::uint64_t{0});
  for (const char* not_uint :
       {"-1", "1.5", "1e3", "18446744073709551616", "\"7\"", "true"}) {
    EXPECT_FALSE(parse_json(not_uint).as_uint64().has_value()) << not_uint;
  }
}

TEST(Json, DuplicateKeysAreRejectedAtEveryLevel) {
  expect_error("{\"a\": 1, \"b\": 2, \"a\": 3}", "duplicate key \"a\"");
  expect_error("[{\"k\": {\"x\": 1, \"x\": 1}}]", "duplicate key \"x\"");
  // Keys compare after unescaping.
  expect_error("{\"a\": 1, \"\\u0061\": 2}", "duplicate key");
  EXPECT_EQ(parse_json("[{\"a\": 1}, {\"a\": 2}]").items.size(), 2u);
}

TEST(Json, NestingIsCappedAtAFixedDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth)));
  expect_error(nested(kMaxJsonDepth + 1), "nesting deeper than");

  // Unbounded recursion would overflow the stack on a million-deep
  // input; the cap turns it into a structured error.
  constexpr std::size_t kDeep = 1'000'000;
  expect_error(std::string(kDeep, '['), "nesting deeper than");
  std::string objects;
  for (std::size_t i = 0; i < kDeep; ++i) {
    objects += "{\"a\":";
  }
  expect_error(objects, "nesting deeper than");
}

TEST(Json, WriterEscapesEveryControlByteAndRoundTrips) {
  std::string all_bytes;
  for (int c = 1; c < 256; ++c) {
    all_bytes.push_back(static_cast<char>(c));
  }
  all_bytes.push_back('\0');
  const std::string written = json_string(all_bytes);
  for (const char c : written) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_EQ(parse_json(written).string, all_bytes);

  EXPECT_EQ(json_string("plain path/v.csv"), "\"plain path/v.csv\"");
  EXPECT_EQ(json_string("q\"b\\"), "\"q\\\"b\\\\\"");
  EXPECT_EQ(json_string("\n\r\t"), "\"\\n\\r\\t\"");
  EXPECT_EQ(json_string(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
}

TEST(Json, WriterNumbersRoundTripAndNonFiniteIsNull) {
  EXPECT_EQ(json_number(1500.0), "1500");
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  for (const double x : {0.1, -7.3502, 1e-300, 4.1674660000000001}) {
    EXPECT_EQ(parse_json(json_number(x)).number, x);
  }
}

// ---------------------------------------------------------------------
// Seeded mutation test: hostile bytes either parse or throw Error.
// ---------------------------------------------------------------------

/// A `crowdrank serve` jobs line using every key.
const char* const kJobLine =
    "{\"id\": 9, \"votes\": \"dir/votes \\\"x\\\".csv\", \"object_count\": "
    "50, \"worker_count\": 12, \"seed\": 18446744073709551615, \"search\": "
    "\"taps\", \"saps_iterations\": 400, \"deadline_ms\": 250, "
    "\"fail_before\": \"rank_search\", \"fail_reason\": \"drill\\n\"}";

/// A telemetry.jsonl line written by `crowdrank serve --telemetry`,
/// trimmed to two histograms and three events.
const char* const kSnapshotLine =
    "{\"v\": 1, \"seq\": 0, \"t_us\": 5482.518, \"counters\": "
    "{\"service.outcome.completed\": 1, \"service.outcome.failed\": 1, "
    "\"service.postmortem.written\": 1}, \"gauges\": "
    "{\"service.queue_depth\": 0}, \"histograms\": {\"service.job_ms\": "
    "{\"count\": 2, \"sum\": 4.5983179999999999, \"min\": "
    "0.43085200000000001, \"max\": 4.1674660000000001, \"p50\": 1, "
    "\"p99\": 4.1674660000000001, \"buckets\": [[1, 1], [8, 1]]}, "
    "\"service.stage_ms.rank_search\": {\"count\": 1, \"sum\": "
    "2.8127339999999998, \"min\": 2.8127339999999998, \"max\": "
    "2.8127339999999998, \"p50\": 2.8127339999999998, \"p99\": "
    "2.8127339999999998, \"buckets\": [[4, 1]]}}, \"window\": "
    "{\"jobs_per_sec\": 364.79588393508243, \"window_ms\": "
    "5.4825179999999998, \"finished\": 2}, \"events_recorded\": 20, "
    "\"events\": [{\"t_us\": 369.51299999999998, \"kind\": "
    "\"queue_depth\", \"job\": 0, \"code\": 0, \"value\": 1}, {\"t_us\": "
    "370.09899999999999, \"kind\": \"job_accepted\", \"job\": 1, "
    "\"code\": 0, \"value\": 1}, {\"t_us\": 4667.2579999999998, \"kind\": "
    "\"job_finished\", \"job\": 1, \"code\": 0, \"value\": "
    "4.1674660000000001}]}";

/// Applies one random mutation: a bit flip, a truncation, a splice of
/// brackets and braces, or a prefix of the seed line repeated up to 64
/// times in front (enough to cross the nesting cap).
void mutate(std::string& text, const std::string& seed, Rng& rng) {
  static const char kBrackets[] = "[]{}\":,";
  const std::size_t pos = rng.uniform_index(text.size() + 1);
  switch (rng.uniform_index(4)) {
    case 0:
      if (!text.empty()) {
        const std::size_t at = rng.uniform_index(text.size());
        text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_index(8)));
      }
      break;
    case 1:
      text.resize(pos);
      break;
    case 2: {
      std::string splice;
      for (std::size_t n = 1 + rng.uniform_index(8); n > 0; --n) {
        splice.push_back(kBrackets[rng.uniform_index(sizeof(kBrackets) - 1)]);
      }
      text.insert(pos, splice);
      break;
    }
    default: {
      const std::string prefix =
          seed.substr(0, rng.uniform_index(seed.size() + 1));
      std::string repeated;
      for (std::size_t n = 2 + rng.uniform_index(63); n > 0; --n) {
        repeated += prefix;
      }
      text = repeated + text;
      break;
    }
  }
}

TEST(JsonMutation, MutatedInputsParseOrThrowError) {
  constexpr std::size_t kIterationsPerSeed = 5000;
  Rng rng(0x5eed);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string seed : {kJobLine, kSnapshotLine}) {
    ASSERT_NO_THROW(parse_json(seed)) << seed;
    for (std::size_t i = 0; i < kIterationsPerSeed; ++i) {
      std::string text = seed;
      for (std::size_t m = 1 + rng.uniform_index(3); m > 0; --m) {
        mutate(text, seed, rng);
      }
      try {
        parse_json(text);
        ++parsed;
      } catch (const Error&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-Error exception " << e.what() << " on input "
                      << text.substr(0, 200);
      }
    }
  }
  // Both outcomes must actually occur, or the mutations are too timid
  // (or too destructive) to exercise the reader.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace crowdrank
