// The project's one JSON module: a small value model, its reader, and
// the writer primitives every exporter shares.
//
// Everything in src/ that reads or writes JSON syntax goes through here:
// JSONL job records (`crowdrank serve --jobs`), telemetry snapshot lines
// and postmortems, RunReports and Chrome traces, and `crowdrank top`.
// The project carries no external JSON dependency by design.
//
// The reader covers the full grammar the writers emit (objects, arrays,
// strings, numbers, booleans, null) and fails loudly with a byte offset
// on anything malformed. It reads untrusted bytes, so it also rejects
// duplicate object keys and nesting deeper than kMaxJsonDepth instead of
// recursing without bound. Object members keep insertion order so
// round-trip tests can compare deterministically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace crowdrank {

/// Deepest array/object nesting parse_json accepts. Fixed: every
/// document the project writes nests at most five levels.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// One parsed JSON value. A tagged struct rather than a std::variant so
/// the recursive members need no indirection gymnastics.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// String contents; for numbers, the number's source text.
  std::string string;
  std::vector<JsonValue> items;  ///< Array elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }

  /// The exact value of a number written as a plain unsigned decimal
  /// integer that fits 64 bits, read from its source text; nullopt for
  /// anything else (non-numbers, signs, fractions, exponents, overflow).
  std::optional<std::uint64_t> as_uint64() const;

  /// First member with `key`, or nullptr (objects only).
  const JsonValue* find(const std::string& key) const;

  /// Member lookups with defaults for optional schema fields.
  double number_at(const std::string& key, double fallback = 0.0) const;
  std::string string_at(const std::string& key,
                        const std::string& fallback = "") const;
};

/// Parses exactly one JSON document (trailing whitespace allowed, nothing
/// else). Throws crowdrank::Error naming the byte offset on malformed
/// input, a duplicate object key, or nesting deeper than kMaxJsonDepth.
JsonValue parse_json(const std::string& text);

/// Writes `text` as a quoted JSON string: `"` and `\` escaped, every byte
/// below 0x20 escaped (\n, \r, \t by name, the rest as \u00XX), all other
/// bytes verbatim.
void write_json_string(std::ostream& os, std::string_view text);

/// Writes `value` as a round-trippable decimal ("%.17g");
/// non-finite values have no JSON literal and are written as null.
void write_json_number(std::ostream& os, double value);

}  // namespace crowdrank
