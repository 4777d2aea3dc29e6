#include "circuit/bench_io.hpp"

#include <cctype>
#include <fstream>
#include <ostream>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/error.hpp"

namespace lsiq::circuit {

namespace {

struct Assignment {
  std::string target;
  GateType type = GateType::kBuf;
  std::vector<std::string> args;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw ParseError(".bench line " + std::to_string(line) + ": " + message);
}

std::string strip(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parse "KEYWORD(arg1, arg2, ...)" returning keyword and args.
bool parse_call(const std::string& text, std::string& keyword,
                std::vector<std::string>& args) {
  const std::size_t open = text.find('(');
  const std::size_t close = text.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return false;
  }
  keyword = strip(text.substr(0, open));
  args.clear();
  std::string inner = text.substr(open + 1, close - open - 1);
  std::size_t start = 0;
  while (start <= inner.size()) {
    const std::size_t comma = inner.find(',', start);
    const std::string piece =
        strip(comma == std::string::npos ? inner.substr(start)
                                         : inner.substr(start, comma - start));
    if (!piece.empty()) args.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !keyword.empty();
}

/// A signal named by an INPUT/OUTPUT directive, with the line that named
/// it so later validation failures can point at the offending line.
struct NamedSignal {
  std::string name;
  int line = 0;
};

}  // namespace

Circuit read_bench(std::istream& in, const std::string& circuit_name) {
  std::vector<NamedSignal> input_names;
  std::vector<NamedSignal> output_names;
  std::vector<Assignment> assignments;
  std::unordered_map<std::string, std::size_t> assignment_of;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = strip(raw);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      // INPUT(x) or OUTPUT(x)
      std::string keyword;
      std::vector<std::string> args;
      if (!parse_call(line, keyword, args) || args.size() != 1) {
        fail(line_no, "expected INPUT(name), OUTPUT(name) or an assignment");
      }
      if (keyword == "INPUT") {
        input_names.push_back({args.front(), line_no});
      } else if (keyword == "OUTPUT") {
        output_names.push_back({args.front(), line_no});
      } else {
        fail(line_no, "unknown directive `" + keyword + "`");
      }
      continue;
    }

    Assignment a;
    a.target = strip(line.substr(0, eq));
    a.line = line_no;
    if (a.target.empty()) fail(line_no, "missing assignment target");
    std::string keyword;
    if (!parse_call(strip(line.substr(eq + 1)), keyword, a.args)) {
      fail(line_no, "malformed right-hand side");
    }
    if (!parse_gate_type(keyword, a.type)) {
      fail(line_no, "unknown gate type `" + keyword + "`");
    }
    const int lo = min_fanin(a.type);
    const int hi = max_fanin(a.type);
    if (static_cast<int>(a.args.size()) < lo ||
        static_cast<int>(a.args.size()) > hi) {
      fail(line_no, "gate `" + keyword + "` given " +
                        std::to_string(a.args.size()) + " operand(s)");
    }
    if (assignment_of.count(a.target) != 0) {
      fail(line_no, "signal `" + a.target + "` assigned twice");
    }
    assignment_of.emplace(a.target, assignments.size());
    assignments.push_back(std::move(a));
  }

  Circuit circuit(circuit_name);
  std::unordered_map<std::string, GateId> ids;

  for (const NamedSignal& input : input_names) {
    if (ids.count(input.name) != 0) {
      fail(input.line, "input `" + input.name + "` declared twice");
    }
    const auto assigned = assignment_of.find(input.name);
    if (assigned != assignment_of.end()) {
      fail(assignments[assigned->second].line,
           "signal `" + input.name + "` is both INPUT and assigned");
    }
    ids.emplace(input.name, circuit.add_input(input.name));
  }

  // Flip-flops first: their outputs are level-0 sources, which breaks
  // sequential feedback for the creation order below.
  for (const Assignment& a : assignments) {
    if (a.type == GateType::kDff) {
      ids.emplace(a.target, circuit.add_dff(a.target));
    }
  }

  // Kahn creation order over combinational dependencies.
  std::vector<std::size_t> pending(assignments.size(), 0);
  std::unordered_map<std::string, std::vector<std::size_t>> waiters;
  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    const Assignment& a = assignments[i];
    if (a.type == GateType::kDff) continue;  // already created
    for (const std::string& arg : a.args) {
      if (ids.count(arg) != 0) continue;  // input or DFF: satisfied
      const auto it = assignment_of.find(arg);
      if (it == assignment_of.end()) {
        fail(a.line, "operand `" + arg + "` is never defined");
      }
      ++pending[i];
      waiters[arg].push_back(i);
    }
    if (pending[i] == 0) ready.push(i);
  }

  std::size_t created = 0;
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop();
    const Assignment& a = assignments[i];
    std::vector<GateId> fanin;
    fanin.reserve(a.args.size());
    for (const std::string& arg : a.args) fanin.push_back(ids.at(arg));
    ids.emplace(a.target, circuit.add_gate(a.type, fanin, a.target));
    ++created;
    const auto it = waiters.find(a.target);
    if (it != waiters.end()) {
      for (const std::size_t w : it->second) {
        if (--pending[w] == 0) ready.push(w);
      }
    }
  }

  std::size_t dff_count = 0;
  for (const Assignment& a : assignments) {
    if (a.type == GateType::kDff) ++dff_count;
  }
  if (created + dff_count != assignments.size()) {
    throw ParseError("netlist `" + circuit_name +
                     "` contains a combinational cycle");
  }

  // Connect flip-flop D inputs now that every signal exists.
  for (const Assignment& a : assignments) {
    if (a.type != GateType::kDff) continue;
    const auto it = ids.find(a.args.front());
    if (it == ids.end()) {
      fail(a.line, "DFF operand `" + a.args.front() + "` is never defined");
    }
    circuit.connect_dff(ids.at(a.target), it->second);
  }

  std::unordered_set<std::string> seen_outputs;
  for (const NamedSignal& output : output_names) {
    const auto it = ids.find(output.name);
    if (it == ids.end()) {
      fail(output.line, "OUTPUT `" + output.name + "` is never defined");
    }
    if (!seen_outputs.insert(output.name).second) {
      fail(output.line, "OUTPUT `" + output.name + "` declared twice");
    }
    circuit.mark_output(it->second);
  }

  circuit.finalize();
  return circuit;
}

Circuit read_bench_string(const std::string& text,
                          const std::string& circuit_name) {
  std::istringstream in(text);
  return read_bench(in, circuit_name);
}

Circuit read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open .bench file: " + path);
  }
  return read_bench(in, bench_circuit_name(path));
}

std::string bench_circuit_name(const std::string& path) {
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name.erase(0, slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name.erase(dot);
  return name;
}

void write_bench(const Circuit& circuit, std::ostream& out) {
  LSIQ_EXPECT(circuit.finalized(), "write_bench requires a finalized circuit");
  out << "# " << circuit.name() << "\n";
  const CircuitStats stats = circuit.stats();
  out << "# " << stats.primary_inputs << " inputs, " << stats.primary_outputs
      << " outputs, " << stats.flip_flops << " flip-flops, "
      << stats.combinational_gates << " gates\n";
  for (const GateId id : circuit.primary_inputs()) {
    out << "INPUT(" << circuit.gate(id).name << ")\n";
  }
  for (const GateId id : circuit.primary_outputs()) {
    out << "OUTPUT(" << circuit.gate(id).name << ")\n";
  }
  for (const GateId id : circuit.topological_order()) {
    const Gate& g = circuit.gate(id);
    if (g.type == GateType::kInput) continue;
    out << g.name << " = " << gate_type_name(g.type) << "(";
    for (std::size_t i = 0; i < g.fanin.size(); ++i) {
      if (i != 0) out << ", ";
      out << circuit.gate(g.fanin[i]).name;
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Circuit& circuit) {
  std::ostringstream out;
  write_bench(circuit, out);
  return out.str();
}

}  // namespace lsiq::circuit
