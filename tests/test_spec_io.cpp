// Tests for the flow spec-file format: key=value parsing with line-number
// diagnostics, round-tripping through write_spec_string, the
// circuit-selector factory, and the committed spec corpus.
#include "flow/spec_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace lsiq::flow {
namespace {

TEST(SpecIo, ParsesAFullSpec) {
  const SpecFile file = read_spec_string(R"(
# the Table 1 experiment
circuit     = mult16
source      = lfsr
patterns    = 1024
lfsr_seed   = 1981
observe     = progressive
strobe_step = 24
engine      = ppsfp
threads     = 4
chips       = 277
yield       = 0.07
n0          = 8
lot_seed    = 1981
strobes     = 0.05 0.08, 0.10
method      = least_squares
targets     = 0.01 0.001
)");
  EXPECT_EQ(file.circuit, "mult16");
  const FlowSpec& spec = file.spec;
  EXPECT_EQ(spec.source.kind, "lfsr");
  EXPECT_EQ(spec.source.pattern_count, 1024u);
  EXPECT_EQ(spec.source.lfsr_seed, 1981u);
  EXPECT_EQ(spec.observe.kind, "progressive");
  EXPECT_EQ(spec.observe.strobe_step, 24u);
  EXPECT_EQ(spec.engine.kind, "ppsfp");
  EXPECT_EQ(spec.engine.num_threads, 4u);
  EXPECT_EQ(spec.lot.chip_count, 277u);
  EXPECT_DOUBLE_EQ(spec.lot.yield, 0.07);
  EXPECT_DOUBLE_EQ(spec.lot.n0, 8.0);
  EXPECT_EQ(spec.lot.seed, 1981u);
  ASSERT_EQ(spec.analysis.strobe_coverages.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.analysis.strobe_coverages[1], 0.08);
  EXPECT_EQ(spec.analysis.method, "least_squares");
  ASSERT_EQ(spec.analysis.reject_targets.size(), 2u);
  // The parsed spec is runnable as-is.
  EXPECT_TRUE(validate(spec).empty());
}

TEST(SpecIo, DefaultsSurviveASparseFile) {
  const SpecFile file = read_spec_string("circuit = c17\n");
  EXPECT_EQ(file.circuit, "c17");
  EXPECT_EQ(file.spec.source.kind, "lfsr");
  EXPECT_EQ(file.spec.observe.kind, "full");
  EXPECT_EQ(file.spec.engine.kind, "ppsfp");
  EXPECT_EQ(file.spec.engine.num_threads, 1u);
  EXPECT_EQ(file.spec.analysis.method, "given");
}

TEST(SpecIo, OldPoolEngineNameReadsAsPpsfp) {
  // "ppsfp_mt" is an alias: ppsfp with the old engine's lane default
  // (0 = all cores) unless the file sets threads.
  const SpecFile bare = read_spec_string("engine = ppsfp_mt\n");
  EXPECT_EQ(bare.spec.engine.kind, "ppsfp");
  EXPECT_EQ(bare.spec.engine.num_threads, 0u);
  const SpecFile pinned = read_spec_string("engine = ppsfp_mt\nthreads = 3\n");
  EXPECT_EQ(pinned.spec.engine.kind, "ppsfp");
  EXPECT_EQ(pinned.spec.engine.num_threads, 3u);
  EXPECT_TRUE(validate(pinned.spec).empty());
  // The writer emits the one engine name and the lane count.
  EXPECT_EQ(write_spec_string(pinned).find("ppsfp_mt"), std::string::npos);
  EXPECT_NE(write_spec_string(pinned).find("engine = ppsfp\nthreads = 3\n"),
            std::string::npos);
}

TEST(SpecIo, CommittedSpecCorpusReadsAndValidates) {
  // Every spec the repo ships parses and validates; each one written with
  // the old engine name reads as ppsfp with the threads value it gives.
  namespace fs = std::filesystem;
  const std::string root = std::string(LSIQ_SOURCE_DIR) + "/tools/specs";
  std::vector<fs::path> paths;
  for (const std::string& dir : {root, root + "/sweeps"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".spec") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 27u);
  std::size_t aliased = 0;
  for (const fs::path& path : paths) {
    SCOPED_TRACE(path.string());
    const SpecFile file = read_spec_file(path.string());
    EXPECT_FALSE(file.circuit.empty());
    const std::vector<SpecIssue> issues = validate(file.spec);
    EXPECT_TRUE(issues.empty())
        << issues.size() << " issue(s), first: " << issues[0].field << ": "
        << issues[0].message;
    std::ifstream in(path);
    bool old_name = false;
    std::size_t threads = 0;  // the alias's lane default
    for (std::string line; std::getline(in, line);) {
      if (line.find("ppsfp_mt") != std::string::npos) old_name = true;
      if (line.rfind("threads", 0) == 0) {
        threads = std::stoul(line.substr(line.find('=') + 1));
      }
    }
    if (!old_name) continue;
    ++aliased;
    EXPECT_EQ(file.spec.engine.kind, "ppsfp");
    EXPECT_EQ(file.spec.engine.num_threads, threads);
  }
  EXPECT_EQ(aliased, 23u);
}

TEST(SpecIo, MisrKeysSelectTheSignaturePath) {
  const SpecFile file = read_spec_string(
      "observe = misr\nmisr_width = 8\nmisr_taps = 0xB8\n");
  EXPECT_EQ(file.spec.observe.kind, "misr");
  EXPECT_EQ(file.spec.observe.misr_width, 8);
  EXPECT_EQ(file.spec.observe.misr_taps, 0xB8u);
}

TEST(SpecIo, UnknownKeyNamesTheLine) {
  // Keys of removed options are unknown like any other.
  for (const char* key : {"bogus", "grade_width", "shards"}) {
    SCOPED_TRACE(key);
    try {
      read_spec_string("source = lfsr\n" + std::string(key) + " = 1\n");
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()),
                "spec line 2: unknown key '" + std::string(key) + "'");
    }
  }
}

TEST(SpecIo, MalformedValueNamesKeyAndLine) {
  try {
    read_spec_string("patterns = lots\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "spec line 1: key 'patterns' needs an unsigned integer, got "
              "'lots'");
  }
}

TEST(SpecIo, NegativeIntegersAreRejectedNotWrapped) {
  // Regression: std::stoull wraps "-1" to 2^64 - 1; the parser must
  // reject it so 'threads = -1' cannot become an 18-quintillion-worker
  // pool request downstream.
  for (const char* line : {"threads = -1\n", "chips = -1\n",
                           "patterns = +3\n"}) {
    SCOPED_TRACE(line);
    EXPECT_THROW(read_spec_string(line), ParseError);
  }
}

TEST(SpecIo, MissingEqualsSignIsRejected) {
  EXPECT_THROW(read_spec_string("just some words\n"), ParseError);
  EXPECT_THROW(read_spec_string("chips =\n"), ParseError);
  EXPECT_THROW(read_spec_string("= 42\n"), ParseError);
}

TEST(SpecIo, CommentsAndBlankLinesAreIgnored) {
  const SpecFile file = read_spec_string(
      "\n# full-line comment\n  chips = 42  # trailing comment\n\n");
  EXPECT_EQ(file.spec.lot.chip_count, 42u);
}

TEST(SpecIo, WriteReadRoundTrip) {
  SpecFile original;
  original.circuit = "mult8";
  original.spec.source.kind = "lfsr";
  original.spec.source.pattern_count = 512;
  original.spec.source.lfsr_seed = 29;
  original.spec.observe.kind = "misr";
  original.spec.observe.misr_width = 8;
  original.spec.engine.kind = "ppsfp";
  original.spec.engine.num_threads = 2;
  original.spec.lot.chip_count = 100;
  original.spec.lot.yield = 0.25;
  original.spec.lot.n0 = 4.0;
  original.spec.analysis.method = "given";

  const SpecFile parsed = read_spec_string(write_spec_string(original));
  EXPECT_EQ(parsed.circuit, "mult8");
  EXPECT_EQ(parsed.spec.source.pattern_count, 512u);
  EXPECT_EQ(parsed.spec.observe.kind, "misr");
  EXPECT_EQ(parsed.spec.observe.misr_width, 8);
  EXPECT_EQ(parsed.spec.engine.num_threads, 2u);
  EXPECT_DOUBLE_EQ(parsed.spec.lot.yield, 0.25);
}

TEST(SpecIo, FaultModelKeySelectsTheUniverse) {
  const SpecFile file =
      read_spec_string("circuit = c17\nfault_model = transition\n");
  EXPECT_EQ(file.spec.fault_model.kind, "transition");
  // Absent key = the stuck-at default.
  EXPECT_EQ(read_spec_string("circuit = c17\n").spec.fault_model.kind,
            "stuck_at");
}

TEST(SpecIo, AnalyzeKeysParseAndRoundTrip) {
  const SpecFile file = read_spec_string(
      "circuit = c17\n"
      "analyze_structure = warn\n"
      "analyze_dead_logic = error\n"
      "analyze_untestable = off\n"
      "analyze_testability = warn\n"
      "resistant_threshold = 0.01\n");
  EXPECT_EQ(file.spec.analyze.structure, "warn");
  EXPECT_EQ(file.spec.analyze.dead_logic, "error");
  EXPECT_EQ(file.spec.analyze.untestable, "off");
  EXPECT_EQ(file.spec.analyze.testability, "warn");
  EXPECT_DOUBLE_EQ(file.spec.analyze.resistant_threshold, 0.01);

  const SpecFile parsed = read_spec_string(write_spec_string(file));
  EXPECT_EQ(parsed.spec.analyze, file.spec.analyze);
}

TEST(SpecIo, DefaultAnalyzeKeysAreNotSerialized) {
  // A spec written before the analyze gate existed must stay
  // byte-identical through a round trip: default knobs are omitted.
  SpecFile plain;
  plain.circuit = "c17";
  const std::string text = write_spec_string(plain);
  EXPECT_EQ(text.find("analyze_"), std::string::npos) << text;
  EXPECT_EQ(text.find("resistant_threshold"), std::string::npos) << text;
  EXPECT_EQ(read_spec_string(text).spec.analyze, AnalyzeSpec{});
}

TEST(SpecIo, RoundTripCoversEveryEnumValueOfEveryAxis) {
  // write -> parse -> compare FULL FlowSpec equality for every selector
  // value of every axis ("explicit" has no text form and is covered by
  // ExplicitSourceHasNoTextForm). Non-default payload fields ride along so
  // the writer cannot silently drop a conditional block.
  const char* fault_models[] = {"stuck_at", "transition"};
  const char* sources[] = {"lfsr", "atpg", "file"};
  const char* observations[] = {"full", "progressive", "misr"};
  const char* engines[] = {"serial", "ppsfp"};
  const char* methods[] = {"given", "slope", "discrete", "least_squares"};

  for (const char* fault_model : fault_models) {
    for (const char* source : sources) {
      for (const char* observe : observations) {
        for (const char* engine : engines) {
          for (const char* method : methods) {
            SCOPED_TRACE(std::string(fault_model) + "/" + source + "/" +
                         observe + "/" + engine + "/" + method);
            SpecFile original;
            original.circuit = "adder8";
            original.spec.fault_model.kind = fault_model;
            original.spec.source.kind = source;
            original.spec.source.pattern_count = 777;
            original.spec.source.lfsr_width = 24;
            original.spec.source.lfsr_seed = 31;
            original.spec.source.atpg.random_patterns = 48;
            original.spec.source.atpg.seed = 5;
            original.spec.source.atpg.podem.use_implications = false;
            original.spec.source.atpg_compact = true;
            original.spec.source.file = "patterns.txt";
            original.spec.observe.kind = observe;
            original.spec.observe.strobe_step = 12;
            original.spec.observe.misr_width = 24;
            original.spec.observe.misr_taps = 0x870000;
            original.spec.engine.kind = engine;
            original.spec.engine.num_threads = 6;
            original.spec.lot.chip_count = 321;
            original.spec.lot.yield = 0.11;
            original.spec.lot.n0 = 5.5;
            original.spec.lot.seed = 77;
            original.spec.analysis.strobe_coverages = {0.1, 0.3, 0.6};
            original.spec.analysis.method = method;
            original.spec.analysis.reject_targets = {0.02, 0.002};

            const SpecFile parsed =
                read_spec_string(write_spec_string(original));
            EXPECT_EQ(parsed.circuit, original.circuit);

            // The writer only serializes fields the selected kinds use, so
            // compare against the original with unserialized conditional
            // fields reset to their defaults.
            FlowSpec expected = original.spec;
            const PatternSourceSpec source_defaults;
            if (expected.source.kind != "lfsr") {
              expected.source.pattern_count = source_defaults.pattern_count;
              expected.source.lfsr_width = source_defaults.lfsr_width;
              expected.source.lfsr_seed = source_defaults.lfsr_seed;
            }
            if (expected.source.kind != "atpg") {
              expected.source.atpg = source_defaults.atpg;
              expected.source.atpg_compact = source_defaults.atpg_compact;
            }
            if (expected.source.kind != "file") {
              expected.source.file = source_defaults.file;
            }
            const ObservationSpec observe_defaults;
            if (expected.observe.kind != "progressive") {
              expected.observe.strobe_step = observe_defaults.strobe_step;
            }
            if (expected.observe.kind != "misr") {
              expected.observe.misr_width = observe_defaults.misr_width;
              expected.observe.misr_taps = observe_defaults.misr_taps;
            }
            EXPECT_TRUE(parsed.spec == expected);
            // Serialization is a fixed point: writing the parsed spec
            // reproduces the text byte for byte.
            EXPECT_EQ(write_spec_string(parsed),
                      write_spec_string(original));
          }
        }
      }
    }
  }
}

TEST(SpecIo, ExplicitSourceHasNoTextForm) {
  SpecFile file;
  file.spec.source.kind = "explicit";
  EXPECT_THROW(write_spec_string(file), lsiq::Error);
}

TEST(SpecIo, CircuitFromNameBuildsGeneratorCircuits) {
  EXPECT_GT(circuit_from_name("c17").gate_count(), 0u);
  EXPECT_GT(circuit_from_name("mult4").gate_count(), 0u);
  EXPECT_GT(circuit_from_name("adder8").gate_count(), 0u);
  EXPECT_GT(circuit_from_name("alu4").gate_count(), 0u);
  EXPECT_GT(circuit_from_name("comparator4").gate_count(), 0u);
  EXPECT_GT(circuit_from_name("parity8").gate_count(), 0u);
}

TEST(SpecIo, DuplicateKeysAreRejectedWithBothLines) {
  // Silently letting the last value win turns a botched sweep edit into
  // a wrong experiment; the diagnostic names both occurrences.
  try {
    read_spec_string("chips = 100\nyield = 0.1\nchips = 200\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "spec line 3: duplicate key 'chips' (first set on line 1)");
    EXPECT_EQ(e.code(), ErrorCode::kParse);
  }
}

TEST(SpecIo, EmptySpecFileIsAParseErrorNotDefaults) {
  // Zero keys is a truncated or wrong file, not a request for the
  // all-defaults experiment.
  EXPECT_THROW(read_spec_string(""), ParseError);
  EXPECT_THROW(read_spec_string("\n\n# only comments\n"), ParseError);
}

TEST(SpecIo, ErrorsCarryTheirTaxonomyCode) {
  // Every failure class the flow layer surfaces is machine-triageable by
  // code, not by parsing what() text.
  try {
    read_spec_string("bogus = 1\n");
    FAIL() << "expected ParseError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse);
    EXPECT_FALSE(e.transient());
  }
  try {
    read_spec_file("/no/such/dir/missing.spec");
    FAIL() << "expected IoError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_TRUE(e.transient());
  }
  try {
    circuit_from_name("warp9000x");
    FAIL() << "expected Error(kInvalidSpec)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidSpec);
    EXPECT_FALSE(e.transient());
  }
}

TEST(SpecIo, CircuitFromNameRejectsUnknownSelectors) {
  EXPECT_THROW(circuit_from_name("warp9000x"), lsiq::Error);
  EXPECT_THROW(circuit_from_name("mult"), lsiq::Error);
  EXPECT_THROW(circuit_from_name(""), lsiq::Error);
  // Regression: an overflowing numeric suffix must be an 'unknown
  // circuit' diagnostic, not an escaping std::out_of_range.
  EXPECT_THROW(circuit_from_name("mult99999999999999999999"), lsiq::Error);
}

}  // namespace
}  // namespace lsiq::flow
