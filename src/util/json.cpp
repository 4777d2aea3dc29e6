#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace lsiq::util::json {

void append_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += escaped;
        } else {
          out += c;  // UTF-8 payload bytes pass through untouched
        }
    }
  }
  out += '"';
}

std::string format_double(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

bool parse_flat_object(const std::string& line,
                       std::map<std::string, Value>* out) {
  std::size_t i = 0;
  const auto skip_space = [&] {
    while (i < line.size() &&
           (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
  };
  const auto parse_string = [&](std::string* text) -> bool {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    text->clear();
    while (i < line.size() && line[i] != '"') {
      char c = line[i++];
      if (c != '\\') {
        *text += c;
        continue;
      }
      if (i >= line.size()) return false;
      const char escape = line[i++];
      switch (escape) {
        case '"': *text += '"'; break;
        case '\\': *text += '\\'; break;
        case '/': *text += '/'; break;
        case 'n': *text += '\n'; break;
        case 'r': *text += '\r'; break;
        case 't': *text += '\t'; break;
        case 'b': *text += '\b'; break;
        case 'f': *text += '\f'; break;
        case 'u': {
          if (i + 4 > line.size()) return false;
          unsigned value = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = line[i++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          if (value > 0xff) return false;  // the writer only escapes bytes
          *text += static_cast<char>(value);
          break;
        }
        default: return false;
      }
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote
    return true;
  };
  // One or more decimal digits.
  const auto scan_digits = [&] {
    const std::size_t first = i;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
    return i > first;
  };

  skip_space();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_space();
  if (i < line.size() && line[i] == '}') return true;
  while (true) {
    skip_space();
    std::string key;
    if (!parse_string(&key)) return false;
    skip_space();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_space();
    Value value;
    if (i < line.size() && line[i] == '"') {
      value.kind = Value::Kind::kString;
      if (!parse_string(&value.text)) return false;
    } else if (line.compare(i, 4, "true") == 0) {
      value.kind = Value::Kind::kBool;
      value.boolean = true;
      i += 4;
    } else if (line.compare(i, 5, "false") == 0) {
      value.kind = Value::Kind::kBool;
      value.boolean = false;
      i += 5;
    } else {
      // Exactly JSON's number grammar and a finite value: strtod alone
      // would also take nan, inf, hex, a leading '+' and leading zeros.
      const std::size_t start = i;
      if (i < line.size() && line[i] == '-') ++i;
      if (i < line.size() && line[i] == '0') {
        ++i;
      } else if (!scan_digits()) {
        return false;
      }
      if (i < line.size() && line[i] == '.') {
        ++i;
        if (!scan_digits()) return false;
      }
      if (i < line.size() && (line[i] == 'e' || line[i] == 'E')) {
        ++i;
        if (i < line.size() && (line[i] == '+' || line[i] == '-')) ++i;
        if (!scan_digits()) return false;
      }
      value.kind = Value::Kind::kNumber;
      value.text = line.substr(start, i - start);
      value.number = std::strtod(value.text.c_str(), nullptr);
      if (!std::isfinite(value.number)) return false;
    }
    (*out)[key] = std::move(value);
    skip_space();
    if (i >= line.size()) return false;
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') return true;
    return false;
  }
}

const Value* find(const std::map<std::string, Value>& values,
                  const std::string& key, Value::Kind kind) {
  const auto it = values.find(key);
  if (it == values.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

std::optional<std::int64_t> integer(const Value& value, std::int64_t lo,
                                    std::int64_t hi) {
  const double x = value.number;
  // NaN fails every comparison, so it falls through to nullopt.
  if (value.kind != Value::Kind::kNumber || !(x >= static_cast<double>(lo)) ||
      !(x <= static_cast<double>(hi)) || x != std::trunc(x)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(x);
}

}  // namespace lsiq::util::json
