// Reader and writer for the ISCAS-85/89 `.bench` netlist format.
//
// The format (used by the ISCAS benchmark suites the testing literature is
// built on) is line oriented:
//
//     # comment
//     INPUT(G1)
//     OUTPUT(G17)
//     G17 = NAND(G8, G9)
//     G8  = DFF(G5)
//
// Signals may be referenced before they are defined (sequential feedback),
// so parsing is two-pass. The writer emits gates in topological order and
// round-trips through the parser bit-exactly up to whitespace.
#pragma once

#include <iosfwd>
#include <string>

#include "circuit/netlist.hpp"

namespace lsiq::circuit {

/// Parse a `.bench` netlist from a stream. The returned circuit is
/// finalized. Throws lsiq::ParseError with a line number on malformed input
/// and lsiq::Error on structural violations (cycles, dangling signals).
Circuit read_bench(std::istream& in, const std::string& circuit_name);

/// Parse a `.bench` netlist from a string (convenience for tests/examples).
Circuit read_bench_string(const std::string& text,
                          const std::string& circuit_name = "bench");

/// Parse a `.bench` file from disk. The circuit is named
/// bench_circuit_name(path).
Circuit read_bench_file(const std::string& path);

/// The name read_bench_file gives the netlist at `path`: its basename
/// without the extension.
std::string bench_circuit_name(const std::string& path);

/// Serialize a finalized circuit to `.bench` text.
void write_bench(const Circuit& circuit, std::ostream& out);

/// Serialize to a string.
std::string write_bench_string(const Circuit& circuit);

}  // namespace lsiq::circuit
