// Text serialization of FlowSpec — the data form of a scenario.
//
// One experiment per file, "key = value" lines, '#' comments. A spec file
// is what turns a scenario sweep into data instead of a new main(): the
// tools/lsiq_flow CLI reads one and prints the Table-1/DPPM report.
//
//     # the Table 1 experiment
//     circuit     = mult16
//     fault_model = stuck_at
//     source      = lfsr
//     patterns    = 1024
//     lfsr_seed   = 1981
//     observe     = progressive
//     strobe_step = 24
//     engine      = ppsfp
//     threads     = 0
//     chips       = 277
//     yield       = 0.07
//     n0          = 8
//     strobes     = 0.05 0.08 0.10 0.15 0.20 0.30 0.36 0.45 0.50 0.65
//     method      = least_squares
//     targets     = 0.01 0.001
//
// `threads` is the lane count of the ppsfp grade (0 = all cores). The old
// engine name `ppsfp_mt` still parses: it reads as `ppsfp`, with
// `threads = 0` when the file gives no `threads` key.
//
// Parsing reports malformed input as lsiq::ParseError with a line number
// (same contract as circuit/bench_io); semantic problems are left to
// flow::validate so the CLI can print every issue at once.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "circuit/netlist.hpp"
#include "flow/spec.hpp"

namespace lsiq::flow {

/// A parsed spec file: the circuit selector plus the flow spec proper.
struct SpecFile {
  /// Generator name or .bench path (see circuit_from_name). Empty when
  /// the file gives none — the caller must supply a circuit.
  std::string circuit;
  FlowSpec spec;
};

/// Parse a spec from a stream / string / file. Throws lsiq::ParseError
/// (with the offending line number) for unknown keys or unparsable values.
SpecFile read_spec(std::istream& in);
SpecFile read_spec_string(const std::string& text);
SpecFile read_spec_file(const std::string& path);

/// Serialize a spec back to the key = value form (inverse of read_spec for
/// everything a spec file can express; explicit pattern-set sources cannot
/// be serialized and throw lsiq::Error).
std::string write_spec_string(const SpecFile& file);

/// Build a circuit from a spec-file selector: "c17", "mult<N>",
/// "adder<N>", "alu<N>", "comparator<N>", "decoder<N>", "parity<N>",
/// "majority<N>", "mux<N>", "barrel<N>", or a path ending in ".bench"
/// (named by circuit::bench_circuit_name). Throws lsiq::Error for an
/// unknown selector and IoError for an unreadable .bench path.
circuit::Circuit circuit_from_name(const std::string& name);

/// A circuit selector resolved to the content it names: what the artifact
/// cache keys a circuit on. A generator selector names its generator's
/// output, so the selector is the key. A .bench path names the file's
/// bytes: resolving reads them once, the key adds their FNV-1a hash, and
/// build() parses those same bytes, so an edit between keying and
/// building cannot file one netlist under another's key.
struct CircuitSource {
  std::string selector;
  std::string key;
  std::optional<std::string> bench_text;  ///< the bytes of a .bench path

  /// What circuit_from_name(selector) returns (it is build() of
  /// resolve_circuit). Throws lsiq::Error for an unknown selector.
  [[nodiscard]] circuit::Circuit build() const;
};

/// Resolve a selector; throws IoError when a .bench path cannot be read.
CircuitSource resolve_circuit(const std::string& name);

}  // namespace lsiq::flow
