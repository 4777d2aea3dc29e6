#include "flow/spec_io.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <utility>

#include "circuit/bench_io.hpp"
#include "circuit/generators.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"

namespace lsiq::flow {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw ParseError("spec line " + std::to_string(line) + ": " + message);
}

std::string trim(const std::string& text) {
  std::size_t first = 0;
  std::size_t last = text.size();
  while (first < last && std::isspace(static_cast<unsigned char>(
                             text[first])) != 0) {
    ++first;
  }
  while (last > first && std::isspace(static_cast<unsigned char>(
                             text[last - 1])) != 0) {
    --last;
  }
  return text.substr(first, last - first);
}

std::uint64_t parse_unsigned(const std::string& value, std::size_t line,
                             const std::string& key) {
  try {
    // std::stoull wraps a leading minus sign instead of rejecting it;
    // "-1" must be a diagnostic, not 2^64 - 1.
    if (value.empty() || value[0] == '-' || value[0] == '+') {
      throw std::invalid_argument(value);
    }
    std::size_t consumed = 0;
    const std::uint64_t parsed = std::stoull(value, &consumed, 0);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    fail(line, "key '" + key + "' needs an unsigned integer, got '" + value +
                   "'");
  }
}

double parse_double(const std::string& value, std::size_t line,
                    const std::string& key) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    fail(line, "key '" + key + "' needs a number, got '" + value + "'");
  }
}

bool parse_bool(const std::string& value, std::size_t line,
                const std::string& key) {
  if (value == "1" || value == "true" || value == "on") return true;
  if (value == "0" || value == "false" || value == "off") return false;
  fail(line, "key '" + key + "' needs a boolean (0/1/true/false), got '" +
                 value + "'");
}

/// Space- and/or comma-separated list of doubles.
std::vector<double> parse_double_list(const std::string& value,
                                      std::size_t line,
                                      const std::string& key) {
  std::string normalized = value;
  for (char& c : normalized) {
    if (c == ',') c = ' ';
  }
  std::istringstream in(normalized);
  std::vector<double> values;
  std::string token;
  while (in >> token) {
    values.push_back(parse_double(token, line, key));
  }
  if (values.empty()) {
    fail(line, "key '" + key + "' needs at least one number");
  }
  return values;
}

void apply_key(SpecFile& file, const std::string& key,
               const std::string& value, std::size_t line) {
  FlowSpec& spec = file.spec;
  if (key == "circuit") {
    file.circuit = value;
  } else if (key == "fault_model") {
    spec.fault_model.kind = value;
  } else if (key == "source") {
    spec.source.kind = value;
  } else if (key == "patterns") {
    spec.source.pattern_count =
        static_cast<std::size_t>(parse_unsigned(value, line, key));
  } else if (key == "lfsr_width") {
    spec.source.lfsr_width =
        static_cast<int>(parse_unsigned(value, line, key));
  } else if (key == "lfsr_seed") {
    spec.source.lfsr_seed = parse_unsigned(value, line, key);
  } else if (key == "atpg_random") {
    spec.source.atpg.random_patterns =
        static_cast<std::size_t>(parse_unsigned(value, line, key));
  } else if (key == "atpg_seed") {
    spec.source.atpg.seed = parse_unsigned(value, line, key);
  } else if (key == "atpg_compact") {
    spec.source.atpg_compact = parse_bool(value, line, key);
  } else if (key == "atpg_implications") {
    spec.source.atpg.podem.use_implications = parse_bool(value, line, key);
  } else if (key == "pattern_file") {
    spec.source.file = value;
  } else if (key == "observe") {
    spec.observe.kind = value;
  } else if (key == "strobe_step") {
    spec.observe.strobe_step =
        static_cast<std::size_t>(parse_unsigned(value, line, key));
  } else if (key == "misr_width") {
    spec.observe.misr_width =
        static_cast<int>(parse_unsigned(value, line, key));
  } else if (key == "misr_taps") {
    spec.observe.misr_taps = parse_unsigned(value, line, key);
  } else if (key == "engine") {
    spec.engine.kind = value;
  } else if (key == "threads") {
    spec.engine.num_threads =
        static_cast<std::size_t>(parse_unsigned(value, line, key));
  } else if (key == "chips") {
    spec.lot.chip_count =
        static_cast<std::size_t>(parse_unsigned(value, line, key));
  } else if (key == "yield") {
    spec.lot.yield = parse_double(value, line, key);
  } else if (key == "n0") {
    spec.lot.n0 = parse_double(value, line, key);
  } else if (key == "lot_seed") {
    spec.lot.seed = parse_unsigned(value, line, key);
  } else if (key == "strobes") {
    spec.analysis.strobe_coverages = parse_double_list(value, line, key);
  } else if (key == "method") {
    spec.analysis.method = value;
  } else if (key == "targets") {
    spec.analysis.reject_targets = parse_double_list(value, line, key);
  } else if (key == "analyze_structure") {
    spec.analyze.structure = value;
  } else if (key == "analyze_dead_logic") {
    spec.analyze.dead_logic = value;
  } else if (key == "analyze_untestable") {
    spec.analyze.untestable = value;
  } else if (key == "analyze_testability") {
    spec.analyze.testability = value;
  } else if (key == "resistant_threshold") {
    spec.analyze.resistant_threshold = parse_double(value, line, key);
  } else {
    fail(line, "unknown key '" + key + "'");
  }
}

}  // namespace

SpecFile read_spec(std::istream& in) {
  LSIQ_FAILPOINT("spec.read");
  SpecFile file;
  std::string raw;
  std::size_t line_number = 0;
  // First line each key was set on: a key given twice is almost always a
  // botched copy-paste sweep edit, and silently letting the last value
  // win turns that into a wrong experiment instead of a diagnostic.
  std::map<std::string, std::size_t> first_seen;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::size_t comment = raw.find('#');
    if (comment != std::string::npos) raw.erase(comment);
    const std::string text = trim(raw);
    if (text.empty()) continue;
    const std::size_t equals = text.find('=');
    if (equals == std::string::npos) {
      fail(line_number, "expected 'key = value', got '" + text + "'");
    }
    const std::string key = trim(text.substr(0, equals));
    const std::string value = trim(text.substr(equals + 1));
    if (key.empty()) fail(line_number, "missing key before '='");
    if (value.empty()) {
      fail(line_number, "missing value for key '" + key + "'");
    }
    const auto [it, inserted] = first_seen.emplace(key, line_number);
    if (!inserted) {
      fail(line_number, "duplicate key '" + key + "' (first set on line " +
                            std::to_string(it->second) + ")");
    }
    apply_key(file, key, value, line_number);
  }
  if (first_seen.empty()) {
    // A spec with zero keys is a truncated or wrong file, not a request
    // for the all-defaults experiment.
    throw ParseError("spec: no 'key = value' lines (empty spec file)");
  }
  // "ppsfp_mt" is the old name of ppsfp on a worker pool. It reads as
  // ppsfp with that engine's old lane default (0 = all cores), so a spec
  // file that says it keeps its bytes, its record hash and its lanes.
  if (file.spec.engine.kind == "ppsfp_mt") {
    file.spec.engine.kind = "ppsfp";
    if (!first_seen.contains("threads")) file.spec.engine.num_threads = 0;
  }
  return file;
}

SpecFile read_spec_string(const std::string& text) {
  std::istringstream in(text);
  return read_spec(in);
}

SpecFile read_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open spec file: " + path);
  }
  return read_spec(in);
}

std::string write_spec_string(const SpecFile& file) {
  const FlowSpec& spec = file.spec;
  if (spec.source.kind == "explicit") {
    throw Error(
        "write_spec_string: an explicit pattern-set source has no text "
        "form; write the patterns with sim::write_patterns_file and use a "
        "file source");
  }
  std::ostringstream out;
  if (!file.circuit.empty()) out << "circuit = " << file.circuit << "\n";
  out << "fault_model = " << spec.fault_model.kind << "\n"
      << "source = " << spec.source.kind << "\n";
  if (spec.source.kind == "lfsr") {
    out << "patterns = " << spec.source.pattern_count << "\n"
        << "lfsr_width = " << spec.source.lfsr_width << "\n"
        << "lfsr_seed = " << spec.source.lfsr_seed << "\n";
  } else if (spec.source.kind == "atpg") {
    out << "atpg_random = " << spec.source.atpg.random_patterns << "\n"
        << "atpg_seed = " << spec.source.atpg.seed << "\n"
        << "atpg_compact = " << (spec.source.atpg_compact ? 1 : 0) << "\n";
    // Non-default only, so pre-existing spec files round-trip unchanged.
    if (!spec.source.atpg.podem.use_implications) {
      out << "atpg_implications = 0\n";
    }
  } else if (spec.source.kind == "file") {
    out << "pattern_file = " << spec.source.file << "\n";
  }
  out << "observe = " << spec.observe.kind << "\n";
  if (spec.observe.kind == "progressive") {
    out << "strobe_step = " << spec.observe.strobe_step << "\n";
  } else if (spec.observe.kind == "misr") {
    out << "misr_width = " << spec.observe.misr_width << "\n";
    if (spec.observe.misr_taps != 0) {
      out << "misr_taps = " << spec.observe.misr_taps << "\n";
    }
  }
  out << "engine = " << spec.engine.kind << "\n";
  if (spec.engine.num_threads != EngineSpec{}.num_threads) {
    out << "threads = " << spec.engine.num_threads << "\n";
  }
  out << "chips = " << spec.lot.chip_count << "\n"
      << "yield = " << spec.lot.yield << "\n"
      << "n0 = " << spec.lot.n0 << "\n"
      << "lot_seed = " << spec.lot.seed << "\n";
  const auto list = [&out](const char* key, const std::vector<double>& xs) {
    if (xs.empty()) return;
    out << key << " =";
    for (const double x : xs) out << " " << x;
    out << "\n";
  };
  list("strobes", spec.analysis.strobe_coverages);
  out << "method = " << spec.analysis.method << "\n";
  list("targets", spec.analysis.reject_targets);
  // The analyze gate: only non-default knobs are serialized, so specs
  // written before the gate existed round-trip byte-identically.
  const AnalyzeSpec defaults;
  if (spec.analyze.structure != defaults.structure) {
    out << "analyze_structure = " << spec.analyze.structure << "\n";
  }
  if (spec.analyze.dead_logic != defaults.dead_logic) {
    out << "analyze_dead_logic = " << spec.analyze.dead_logic << "\n";
  }
  if (spec.analyze.untestable != defaults.untestable) {
    out << "analyze_untestable = " << spec.analyze.untestable << "\n";
  }
  if (spec.analyze.testability != defaults.testability) {
    out << "analyze_testability = " << spec.analyze.testability << "\n";
  }
  if (spec.analyze.resistant_threshold != defaults.resistant_threshold) {
    out << "resistant_threshold = " << spec.analyze.resistant_threshold
        << "\n";
  }
  return out.str();
}

circuit::Circuit circuit_from_name(const std::string& name) {
  return resolve_circuit(name).build();
}

CircuitSource resolve_circuit(const std::string& name) {
  CircuitSource source;
  source.selector = name;
  source.key = name;
  if (name.size() > 6 && name.substr(name.size() - 6) == ".bench") {
    std::ifstream in(name, std::ios::binary);
    if (!in) {
      throw IoError("cannot open .bench file: " + name);
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::string text = bytes.str();
    char hash[24];
    std::snprintf(hash, sizeof hash, "#%016llx",
                  static_cast<unsigned long long>(util::fnv1a(text)));
    source.key += hash;
    source.bench_text = std::move(text);
  }
  return source;
}

circuit::Circuit CircuitSource::build() const {
  const std::string& name = selector;
  if (bench_text.has_value()) {
    return circuit::read_bench_string(*bench_text,
                                      circuit::bench_circuit_name(name));
  }
  if (name == "c17") return circuit::make_c17();

  // "<family><N>" selectors.
  std::size_t digits = name.size();
  while (digits > 0 &&
         std::isdigit(static_cast<unsigned char>(name[digits - 1])) != 0) {
    --digits;
  }
  const std::string family = name.substr(0, digits);
  const std::string suffix = name.substr(digits);
  // Absurdly long suffixes overflow std::stoul (std::out_of_range); treat
  // them as unknown selectors, not as a crash.
  if (!family.empty() && !suffix.empty() && suffix.size() <= 4) {
    const int n = static_cast<int>(std::stoul(suffix));
    if (family == "mult") return circuit::make_array_multiplier(n);
    if (family == "adder") return circuit::make_ripple_carry_adder(n);
    if (family == "alu") return circuit::make_alu(n);
    if (family == "comparator") return circuit::make_comparator(n);
    if (family == "decoder") return circuit::make_decoder(n);
    if (family == "parity") return circuit::make_parity_tree(n);
    if (family == "majority") return circuit::make_majority(n);
    if (family == "mux") return circuit::make_mux_tree(n);
    if (family == "barrel") return circuit::make_barrel_rotator(n);
  }
  throw Error("unknown circuit '" + name +
                  "' (expected c17, mult<N>, adder<N>, alu<N>, "
                  "comparator<N>, decoder<N>, parity<N>, majority<N>, "
                  "mux<N>, barrel<N>, or a .bench path)",
              ErrorCode::kInvalidSpec);
}

}  // namespace lsiq::flow
