// Minimal flat JSON: the wire format shared by the batch result store and
// the flow-service protocol.
//
// Both speak line-delimited JSON whose every line is one FLAT object of
// string / number / boolean values — no nesting, no arrays. A hand-rolled
// writer/reader keeps the stack dependency-free and the format under this
// file's control; anything richer (a list of jobs, say) is expressed as
// multiple lines, not nested JSON.
//
// Escaping contract: the writer escapes '"', '\\', control characters
// (\n \r \t and \u00xx for the rest); UTF-8 payload bytes pass through
// untouched. parse_flat_object accepts exactly what the writer emits plus
// the standard whitespace and \/ \b \f escapes, and returns false on any
// malformation — callers treat such a line as torn/foreign and skip it.
// A number must match JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and be finite.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace lsiq::util::json {

/// Append `text` as a JSON string literal (quotes included) to `out`.
void append_string(std::string& out, const std::string& text);

/// Round-trippable double text (%.17g): format(parse(format(x))) ==
/// format(x), which is what keeps a record byte-stable across a
/// parse/reserialize cycle.
std::string format_double(double value);

/// One parsed value of a flat object.
struct Value {
  enum class Kind { kString, kNumber, kBool };
  Kind kind = Kind::kString;
  std::string text;      // kString: unescaped payload; kNumber: raw text
  double number = 0.0;
  bool boolean = false;
};

/// Parse one flat JSON object of string/number/bool values into `out`
/// (which is NOT cleared first). Returns false on any malformation.
bool parse_flat_object(const std::string& line,
                       std::map<std::string, Value>* out);

/// The value under `key` when present AND of `kind`; nullptr otherwise.
const Value* find(const std::map<std::string, Value>& values,
                  const std::string& key, Value::Kind kind);

/// Integers up to this magnitude are exactly representable as doubles;
/// the widest bound integer() accepts.
inline constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

/// A number value as an integer when it is finite, integral and within
/// [lo, hi]; nullopt otherwise (NaN, an infinity, a fraction, out of range,
/// or not a number). Every integer read from untrusted JSON goes through
/// here: casting such a double to an integer type is undefined behaviour.
/// The bounds must lie within +-kMaxExactInteger.
std::optional<std::int64_t> integer(const Value& value, std::int64_t lo,
                                    std::int64_t hi);

}  // namespace lsiq::util::json
