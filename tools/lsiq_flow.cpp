// lsiq_flow — run one declarative flow spec (or a whole batch of them)
// and print the Table-1 / DPPM report.
//
//     lsiq_flow <spec-file>              run the experiment
//     lsiq_flow --validate <spec-file>   check the spec, run nothing
//     lsiq_flow --check <spec-file>      spec + netlist lint, run nothing
//     lsiq_flow --batch <manifest>       run many specs (see --help)
//     lsiq_flow --server SOCK --submit <spec-file>
//                                        submit to a lsiq_flowd daemon
//     lsiq_flow --canon <store.jsonl>    canonicalize a result store
//
// A spec file selects a circuit and the four flow axes (see
// flow/spec_io.hpp for the format, tools/specs/ for examples). A manifest
// is a directory of .spec files or a list file naming them one per line.
//
// Exit-code contract (stable; scripts may rely on it):
//   0  success — the flow ran (every batch spec "ok" in --batch mode;
//      in client mode, the request succeeded and a waited-for job's
//      record is "ok")
//   1  runtime failure — unreadable files, unreachable strobes, failed
//      batch specs, a refused or failed daemon request, or a write
//      failure on the report/JSONL output
//   2  spec/usage error — bad command line, malformed or invalid spec,
//      empty manifest
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "analyze/rule.hpp"
#include "fault/fault_list.hpp"
#include "fault_model/universe.hpp"
#include "flow/batch.hpp"
#include "flow/flow.hpp"
#include "flow/spec_io.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/version.hpp"

namespace {

constexpr const char* kHelp = R"help(usage: lsiq_flow [options] <spec-file>
       lsiq_flow --batch [options] <manifest>
       lsiq_flow --server SOCKET <client-op>
       lsiq_flow --canon <store.jsonl>

Run one declarative flow spec end to end — materialize the pattern
source, grade it, manufacture and test the virtual lot, characterize
DPPM — and print the Table-1 report. See tools/specs/ for examples.

Options:
  -h, --help            print this help and exit 0
  --version             print the version and exit 0
  --validate            check the spec (including the circuit name), run
                        nothing
  --check               dry-run lint: validate the spec, resolve the
                        circuit, and run the static-analysis gate
                        (src/analyze) under the spec's analyze_* policies
                        without grading anything. Diagnostics stream to
                        stdout as JSON lines, a summary to stderr. Exit 0
                        when the gate passes (warnings allowed), 1 when an
                        error-policy rule fired, 2 for an unreadable or
                        invalid spec. Combine with --batch to lint a whole
                        manifest (one JSONL record per spec, lint failures
                        recorded with error_code "lint").

Batch mode (--batch <manifest>):
  A manifest is a directory (every *.spec in it, sorted) or a list file
  (one spec path per line, '#' comments, relative paths resolved against
  the list file's directory). Specs run concurrently; one JSONL record
  per spec is streamed to stdout in completion order.

  --jobs N              concurrent spec runners (0 = hardware threads).
                        Runners and each spec's `threads` lanes share
                        one pool, so a batch never runs on more threads
                        at once than the hardware has
  --checkpoint FILE     JSONL result store doubling as a checkpoint:
                        re-running the same manifest skips unchanged "ok"
                        specs and re-attempts failures
  --no-resume           ignore an existing checkpoint; rerun everything
  --deadline-ms N       per-spec cooperative deadline (0 = none); overruns
                        end the spec with error_code "deadline"
  --max-attempts N      tries per spec for TRANSIENT failures (default 3;
                        permanent failures never retry)
  --backoff-ms N        initial retry backoff (default 100; grows 4x per
                        retry, capped at 2000ms; 0 = no sleeping)
  --cache-cost N        artifact cache cost bound in compiled nodes
                        (default 0 = unbounded; see lsiq_flowd --help)

  Failure injection: set LSIQ_FAILPOINTS (e.g.
  "flow.grade=error(io,1)") to fault named sites deterministically —
  see src/util/failpoint.hpp for the grammar and site list.

Client mode (--server SOCKET, talking to a lsiq_flowd daemon):
  --submit SPEC         submit one spec file; prints the submit response
                        (JSON, includes the job id). With --wait, polls
                        until the job is done and prints its full result
                        record; exit 0 iff the record is "ok"
  --priority N          submit priority (higher runs first; default 0)
  --deadline-ms N       per-job deadline override for --submit
  --wait                after --submit: block until the job finishes
  --status JOB          print one job's state
  --result JOB          print a finished job's full result record
  --cancel JOB          cancel a queued (immediate) or running
                        (cooperative) job
  --list                print every job, one JSON line each
  --stats               print queue + artifact-cache counters
  --ping                check the daemon is alive; prints its version
  --drain               finish all admitted jobs, then stop the daemon
  --shutdown            cancel queued jobs and stop the daemon
  All responses are single JSON lines (README.md "Flow service" has the
  field tables). Refusals print the server's error response and exit 1 —
  error_code "queue_full" is worth a client-side retry, "shutdown" is
  not.

Store canonicalization (--canon <store.jsonl>):
  Print the store's last record per spec, sorted by spec path, in
  canonical form (volatile fields wall_ms/resumed dropped). Two stores
  of the same work — a --batch checkpoint and a daemon journal, say —
  canonicalize to identical bytes; CI diffs exactly that.

Exit codes: 0 = success; 1 = runtime failure (including failed batch
specs and report/JSONL write failures); 2 = spec or usage error.
)help";

int usage() {
  std::cerr << "usage: lsiq_flow [--validate | --check] <spec-file>\n"
               "       lsiq_flow [--check] --batch [options] <manifest>\n"
               "       lsiq_flow --server SOCKET <client-op>\n"
               "       lsiq_flow --canon <store.jsonl>\n"
               "       lsiq_flow --help\n";
  return 2;
}

/// Flush stdout and report a write failure (full disk, closed pipe) as a
/// runtime error instead of silently dropping output.
int finish(int code) {
  std::cout.flush();
  if (!std::cout) {
    std::cerr << "lsiq_flow: error: writing output failed\n";
    return EXIT_FAILURE;
  }
  return code;
}

/// Parse a non-negative integer CLI option value; exits via usage() text
/// on garbage.
std::optional<long> parse_count(const std::string& value) {
  try {
    std::size_t consumed = 0;
    const long parsed = std::stol(value, &consumed);
    if (consumed != value.size() || parsed < 0) return std::nullopt;
    return parsed;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

struct BatchCli {
  std::string manifest;
  lsiq::flow::BatchOptions options;
};

int run_batch_mode(const BatchCli& cli) {
  using namespace lsiq;
  try {
    flow::BatchOptions options = cli.options;
    options.stream = &std::cout;
    const flow::BatchResult result = flow::run_manifest(cli.manifest,
                                                        options);
    std::cerr << result.summary() << "\n";
    return finish(result.all_ok() ? EXIT_SUCCESS : EXIT_FAILURE);
  } catch (const lsiq::Error& e) {
    // Batch-level faults only — individual spec failures are records.
    std::cerr << "lsiq_flow: batch error [" << error_code_name(e.code())
              << "]: " << e.what() << "\n";
    return e.code() == ErrorCode::kInvalidSpec ? 2 : EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "lsiq_flow: internal error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}

// ---- client mode (talking to a lsiq_flowd daemon) ----

struct ClientCli {
  std::string server;
  std::string op;     ///< submit|status|result|cancel|list|stats|ping|...
  std::string spec;   ///< submit: spec path (passed VERBATIM — the record
                      ///< must name the same path a --batch manifest would)
  std::uint64_t job = 0;
  int priority = 0;
  int deadline_ms = -1;
  bool wait = false;
};

/// One response line → parsed fields; empty map on malformation.
std::map<std::string, lsiq::util::json::Value> parse_response(
    const std::string& line) {
  std::map<std::string, lsiq::util::json::Value> values;
  if (!lsiq::util::json::parse_flat_object(line, &values)) values.clear();
  return values;
}

int run_client_mode(const ClientCli& cli) {
  using namespace lsiq;
  namespace json = util::json;
  using Kind = json::Value::Kind;
  try {
    service::SocketClient client(cli.server);
    service::Request request;
    request.op = cli.op;
    if (cli.op == "submit") {
      request.spec = cli.spec;
      request.priority = cli.priority;
      request.deadline_ms = cli.deadline_ms;
    } else if (cli.op == "status" || cli.op == "result" ||
               cli.op == "cancel") {
      request.job = cli.job;
      request.has_job = true;
    }
    client.send_line(service::format_request(request));
    const std::string line = client.read_line();
    std::cout << line << "\n";
    const auto values = parse_response(line);
    const json::Value* ok = json::find(values, "ok", Kind::kBool);
    if (ok == nullptr || !ok->boolean) return finish(EXIT_FAILURE);

    if (cli.op == "list") {
      const json::Value* count = json::find(values, "count", Kind::kNumber);
      const std::optional<std::int64_t> jobs =
          count != nullptr ? json::integer(*count, 0, json::kMaxExactInteger)
                           : 0;
      if (!jobs.has_value()) return finish(EXIT_FAILURE);
      for (std::int64_t i = 0; i < *jobs; ++i) {
        std::cout << client.read_line() << "\n";
      }
      return finish(EXIT_SUCCESS);
    }

    if (cli.op == "submit" && cli.wait) {
      const json::Value* job = json::find(values, "job", Kind::kNumber);
      const std::optional<std::int64_t> parsed =
          job != nullptr ? json::integer(*job, 0, json::kMaxExactInteger)
                         : std::nullopt;
      if (!parsed.has_value()) return finish(EXIT_FAILURE);
      const auto id = static_cast<std::uint64_t>(*parsed);
      // Poll over the same connection; short-lived exchanges keep the
      // daemon responsive to cancels from elsewhere while we wait.
      while (true) {
        service::Request poll;
        poll.op = "status";
        poll.job = id;
        poll.has_job = true;
        client.send_line(service::format_request(poll));
        const auto status = parse_response(client.read_line());
        const json::Value* state = json::find(status, "state", Kind::kString);
        if (state == nullptr) return finish(EXIT_FAILURE);
        if (state->text == "done") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      service::Request fetch;
      fetch.op = "result";
      fetch.job = id;
      fetch.has_job = true;
      client.send_line(service::format_request(fetch));
      const std::string record_line = client.read_line();
      std::cout << record_line << "\n";
      const auto record = parse_response(record_line);
      const json::Value* status = json::find(record, "status", Kind::kString);
      return finish(status != nullptr && status->text == "ok"
                        ? EXIT_SUCCESS
                        : EXIT_FAILURE);
    }
    return finish(EXIT_SUCCESS);
  } catch (const lsiq::Error& e) {
    std::cerr << "lsiq_flow: client error [" << error_code_name(e.code())
              << "]: " << e.what() << "\n";
    return EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "lsiq_flow: internal error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}

// ---- store canonicalization ----

int run_canon_mode(const std::string& path) {
  using namespace lsiq;
  {
    std::ifstream probe(path);
    if (!probe) {
      std::cerr << "lsiq_flow: cannot read result store: " << path << "\n";
      return EXIT_FAILURE;
    }
  }
  // load_result_store applies last-record-per-spec; the map is already
  // sorted by spec path, which IS the canonical order.
  const std::map<std::string, flow::BatchRecord> records =
      flow::load_result_store(path);
  for (const auto& [spec, record] : records) {
    std::cout << record.canonical_jsonl() << "\n";
  }
  return finish(EXIT_SUCCESS);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lsiq;

  // Arm failure-injection sites from the environment first thing, so CI
  // can fault any stage of either mode without a rebuild.
  try {
    util::Failpoints::instance().arm_from_env();
  } catch (const lsiq::Error& e) {
    std::cerr << "lsiq_flow: bad LSIQ_FAILPOINTS: " << e.what() << "\n";
    return 2;
  }

  bool validate_only = false;
  bool check_mode = false;
  bool batch_mode = false;
  BatchCli batch;
  ClientCli client;
  std::string canon_path;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto option_value = [&](const char* name) -> std::optional<long> {
      if (++i >= argc) {
        std::cerr << "lsiq_flow: " << name << " needs a value\n";
        return std::nullopt;
      }
      const std::optional<long> parsed = parse_count(argv[i]);
      if (!parsed.has_value()) {
        std::cerr << "lsiq_flow: " << name
                  << " needs a non-negative integer, got '" << argv[i]
                  << "'\n";
      }
      return parsed;
    };
    // A client-mode op that takes a job id; sets client.op + client.job.
    const auto job_op = [&](const char* name) -> bool {
      const auto value = option_value(name);
      if (!value.has_value()) return false;
      client.op = name + 2;  // strip "--"
      client.job = static_cast<std::uint64_t>(*value);
      return true;
    };
    if (arg == "-h" || arg == "--help") {
      std::cout << kHelp;
      return finish(EXIT_SUCCESS);
    } else if (arg == "--version") {
      std::cout << "lsiq_flow " << kVersion << "\n";
      return finish(EXIT_SUCCESS);
    } else if (arg == "--server") {
      if (++i >= argc) {
        std::cerr << "lsiq_flow: --server needs a socket path\n";
        return usage();
      }
      client.server = argv[i];
    } else if (arg == "--canon") {
      if (++i >= argc) {
        std::cerr << "lsiq_flow: --canon needs a store path\n";
        return usage();
      }
      canon_path = argv[i];
    } else if (arg == "--submit") {
      if (++i >= argc) {
        std::cerr << "lsiq_flow: --submit needs a spec path\n";
        return usage();
      }
      client.op = "submit";
      client.spec = argv[i];
    } else if (arg == "--status" || arg == "--result" || arg == "--cancel") {
      if (!job_op(arg.c_str())) return usage();
    } else if (arg == "--list" || arg == "--stats" || arg == "--ping" ||
               arg == "--drain" || arg == "--shutdown") {
      client.op = arg.substr(2);
    } else if (arg == "--wait") {
      client.wait = true;
    } else if (arg == "--priority") {
      const auto value = option_value("--priority");
      if (!value.has_value()) return usage();
      client.priority = static_cast<int>(*value);
    } else if (arg == "--validate") {
      validate_only = true;
    } else if (arg == "--check") {
      check_mode = true;
    } else if (arg == "--batch") {
      batch_mode = true;
    } else if (arg == "--jobs") {
      const auto value = option_value("--jobs");
      if (!value.has_value()) return usage();
      batch.options.num_workers = static_cast<std::size_t>(*value);
    } else if (arg == "--checkpoint") {
      if (++i >= argc) {
        std::cerr << "lsiq_flow: --checkpoint needs a path\n";
        return usage();
      }
      batch.options.checkpoint = argv[i];
    } else if (arg == "--no-resume") {
      batch.options.resume = false;
    } else if (arg == "--deadline-ms") {
      const auto value = option_value("--deadline-ms");
      if (!value.has_value()) return usage();
      batch.options.deadline_ms = static_cast<int>(*value);
      client.deadline_ms = static_cast<int>(*value);
    } else if (arg == "--cache-cost") {
      const auto value = option_value("--cache-cost");
      if (!value.has_value()) return usage();
      batch.options.cache_max_cost = static_cast<std::size_t>(*value);
    } else if (arg == "--max-attempts") {
      const auto value = option_value("--max-attempts");
      if (!value.has_value() || *value < 1) return usage();
      batch.options.retry.max_attempts = static_cast<int>(*value);
    } else if (arg == "--backoff-ms") {
      const auto value = option_value("--backoff-ms");
      if (!value.has_value()) return usage();
      batch.options.retry.backoff_initial_ms = static_cast<int>(*value);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (!canon_path.empty()) {
    if (batch_mode || validate_only || check_mode || !path.empty() ||
        !client.server.empty()) {
      return usage();
    }
    return run_canon_mode(canon_path);
  }
  if (!client.server.empty() || !client.op.empty()) {
    // Client mode: --server plus exactly one op, nothing from the other
    // modes mixed in.
    if (client.server.empty() || client.op.empty() || batch_mode ||
        validate_only || check_mode || !path.empty()) {
      return usage();
    }
    return run_client_mode(client);
  }
  if (path.empty()) return usage();
  if (batch_mode && validate_only) return usage();
  if (check_mode && validate_only) return usage();

  if (batch_mode) {
    batch.manifest = path;
    batch.options.check_only = check_mode;
    return run_batch_mode(batch);
  }

  try {
    const flow::SpecFile file = flow::read_spec_file(path);
    const std::vector<flow::SpecIssue> issues = flow::validate(file.spec);
    if (!issues.empty()) {
      for (const flow::SpecIssue& issue : issues) {
        std::cerr << "spec error: " << issue.field << ": " << issue.message
                  << "\n";
      }
      return 2;
    }
    if (file.circuit.empty()) {
      std::cerr << "spec error: circuit: a spec file must name a circuit\n";
      return 2;
    }
    // The circuit selector is part of the spec: resolve it in both modes
    // so --validate catches a bad name and a bad name is a spec error
    // (exit 2), not a runtime failure.
    std::optional<circuit::Circuit> circuit;
    try {
      circuit = flow::circuit_from_name(file.circuit);
    } catch (const lsiq::Error& e) {
      std::cerr << "spec error: circuit: " << e.what() << "\n";
      return 2;
    }
    if (validate_only) {
      std::cout << "spec OK: circuit " << file.circuit << ", fault model "
                << file.spec.fault_model.kind << ", source "
                << file.spec.source.kind << ", observe "
                << file.spec.observe.kind << ", engine "
                << file.spec.engine.kind << "\n";
      return finish(EXIT_SUCCESS);
    }
    // validate() accepted the spec, so the model name resolves.
    const fault_model::FaultModel model =
        *fault_model::fault_model_from_name(file.spec.fault_model.kind);
    const fault::FaultList faults = fault_model::universe(*circuit, model);
    if (check_mode) {
      // Dry-run lint: the analyze gate only, diagnostics as JSON lines.
      try {
        const flow::CheckOutcome outcome =
            flow::check_detailed(faults, file.spec);
        for (const analyze::Diagnostic& diagnostic : outcome.diagnostics) {
          std::cout << diagnostic.to_jsonl() << "\n";
        }
        std::cerr << "check OK: circuit " << file.circuit << ", "
                  << faults.class_count() << " collapsed classes, "
                  << outcome.diagnostics.size() << " warning"
                  << (outcome.diagnostics.size() == 1 ? "" : "s");
        if (outcome.statically_redundant_faults > 0) {
          std::cerr << ", " << outcome.statically_redundant_faults
                    << " statically redundant fault"
                    << (outcome.statically_redundant_faults == 1 ? "" : "s")
                    << " (" << outcome.statically_redundant_classes
                    << (outcome.statically_redundant_classes == 1
                            ? " class"
                            : " classes")
                    << ")";
        }
        std::cerr << "\n";
        return finish(EXIT_SUCCESS);
      } catch (const analyze::LintError& e) {
        std::size_t errors = 0;
        for (const analyze::Diagnostic& diagnostic : e.diagnostics()) {
          std::cout << diagnostic.to_jsonl() << "\n";
          if (diagnostic.severity == analyze::Policy::kError) ++errors;
        }
        std::cerr << "check FAILED: circuit " << file.circuit << ", "
                  << errors << " error" << (errors == 1 ? "" : "s") << ", "
                  << e.diagnostics().size() - errors << " warning"
                  << (e.diagnostics().size() - errors == 1 ? "" : "s")
                  << "\n";
        return finish(EXIT_FAILURE);
      }
    }
    std::cout << "circuit: " << circuit->name() << " — "
              << fault_model::fault_model_label(model)
              << " fault universe N = " << faults.fault_count() << " ("
              << faults.class_count() << " collapsed classes)\n";
    const flow::FlowResult result = flow::run(faults, file.spec);
    std::cout << result.report();
    return finish(EXIT_SUCCESS);
  } catch (const lsiq::ParseError& e) {
    // A spec file the parser rejects is a spec error, same as one
    // validate() rejects.
    std::cerr << "spec error: " << e.what() << "\n";
    return 2;
  } catch (const lsiq::IoError& e) {
    if (check_mode) {
      // The --check contract: an unreadable spec is a spec error (2),
      // mirroring parse failures — a dry run has no runtime half to fail.
      std::cerr << "spec error: " << e.what() << "\n";
      return 2;
    }
    std::cerr << "lsiq_flow: error [" << error_code_name(e.code())
              << "]: " << e.what() << "\n";
    return EXIT_FAILURE;
  } catch (const lsiq::Error& e) {
    std::cerr << "lsiq_flow: error [" << error_code_name(e.code())
              << "]: " << e.what() << "\n";
    return EXIT_FAILURE;
  } catch (const std::exception& e) {
    // Backstop so no library exception ever reaches std::terminate.
    std::cerr << "lsiq_flow: internal error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
