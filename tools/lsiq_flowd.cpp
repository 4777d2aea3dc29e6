// lsiq_flowd — the flow service daemon: a long-running lsiq_flow.
//
//     lsiq_flowd --server /tmp/lsiq.sock --store results.jsonl
//
// Clients (lsiq_flow --server ..., or anything that speaks the protocol
// of src/service/protocol.hpp) submit flow specs over the UNIX socket;
// jobs run asynchronously on job lanes with the same isolation,
// retry, deadline and result-record semantics as `lsiq_flow --batch`,
// sharing one bounded artifact cache across every job the daemon ever
// runs. The JSONL store is an append-mode journal: restart the daemon on
// the same store and unchanged-ok specs resolve instantly (resumed
// records), exactly like --batch --resume.
//
// The daemon exits after serving a `drain` request (finish the queue
// first) or a `shutdown` request (cancel the queue); SIGINT/SIGTERM
// behave like shutdown.
//
// Exit-code contract (stable; scripts may rely on it):
//   0  clean exit — drain, shutdown, or signal
//   1  runtime failure — cannot bind the socket, cannot open the store
//   2  usage error — bad command line
#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <string>

#include "service/server.hpp"
#include "service/service.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/version.hpp"

namespace {

constexpr const char* kHelp = R"help(usage: lsiq_flowd --server SOCKET [options]

Run the flow service daemon: accept flow-spec jobs over a UNIX-domain
socket, execute them asynchronously on job lanes, and journal one
JSONL result record per job. Submit work with `lsiq_flow --server
SOCKET --submit spec.spec` (see lsiq_flow --help) or any client that
speaks the line-delimited JSON protocol (README.md, "Flow service").

Options:
  -h, --help            print this help and exit 0
  --version             print the version and exit 0
  --server SOCKET       UNIX socket path to listen on (required)
  --store FILE          append-mode JSONL result store; doubles as the
                        resume journal across daemon restarts
  --no-resume           do not satisfy submits from unchanged-ok store
                        records
  --jobs N              job lanes (default 2; 0 = hardware threads): N
                        threads that each run one job at a time. Jobs
                        grade their `threads` lanes on one shared pool
                        of hardware threads - 1 workers, so the daemon
                        runs N lanes plus that pool
  --queue N             admission bound: max queued jobs (default 256);
                        submits beyond it are refused with error_code
                        "queue_full"
  --cache-cost N        artifact cache cost bound in compiled nodes
                        (default 0 = unbounded); the daemon evicts
                        least-recently-used artifacts to stay under it
  --spool DIR           where inline-submitted specs are written
                        (default: current directory)
  --deadline-ms N       default per-job cooperative deadline (0 = none)
  --max-attempts N      tries per job for transient failures (default 3)
  --backoff-ms N        initial retry backoff (default 100; 0 = none)
  --max-conns N         concurrent-connection bound (default 8); the
                        connection over it is refused with error_code
                        "queue_full" instead of queueing
  --idle-timeout-ms N   per-connection idle read timeout (default 0 =
                        none); an idle connection is answered with
                        error_code "deadline" and closed

Failure injection: set LSIQ_FAILPOINTS (see src/util/failpoint.hpp);
the daemon adds the sites "service.accept" (drop the connection) and
"service.job" (fail the job with a structured record).

Exit codes: 0 = clean exit (drain/shutdown/signal); 1 = runtime
failure; 2 = usage error.
)help";

int usage() {
  std::cerr << "usage: lsiq_flowd --server SOCKET [options]\n"
               "       lsiq_flowd --help\n";
  return 2;
}

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

lsiq::service::SocketServer* g_server = nullptr;

extern "C" void handle_signal(int) {
  // stop() is an atomic store plus a shutdown(2) call — signal-safe.
  if (g_server != nullptr) g_server->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lsiq;

  try {
    util::Failpoints::instance().arm_from_env();
  } catch (const lsiq::Error& e) {
    std::cerr << "lsiq_flowd: bad LSIQ_FAILPOINTS: " << e.what() << "\n";
    return 2;
  }

  std::string socket_path;
  service::ServiceOptions options;
  service::SocketServerOptions server_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto option_value = [&](const char* name) -> std::optional<long> {
      if (++i >= argc) {
        std::cerr << "lsiq_flowd: " << name << " needs a value\n";
        return std::nullopt;
      }
      const std::optional<long> parsed = parse_count(argv[i]);
      if (!parsed.has_value()) {
        std::cerr << "lsiq_flowd: " << name
                  << " needs a non-negative integer, got '" << argv[i]
                  << "'\n";
      }
      return parsed;
    };
    const auto path_value = [&](const char* name) -> const char* {
      if (++i >= argc) {
        std::cerr << "lsiq_flowd: " << name << " needs a path\n";
        return nullptr;
      }
      return argv[i];
    };
    if (arg == "-h" || arg == "--help") {
      std::cout << kHelp;
      return EXIT_SUCCESS;
    } else if (arg == "--version") {
      std::cout << "lsiq_flowd " << kVersion << "\n";
      return EXIT_SUCCESS;
    } else if (arg == "--server") {
      const char* value = path_value("--server");
      if (value == nullptr) return usage();
      socket_path = value;
    } else if (arg == "--store") {
      const char* value = path_value("--store");
      if (value == nullptr) return usage();
      options.store_path = value;
    } else if (arg == "--spool") {
      const char* value = path_value("--spool");
      if (value == nullptr) return usage();
      options.spool_dir = value;
    } else if (arg == "--no-resume") {
      options.resume = false;
    } else if (arg == "--jobs") {
      const auto value = option_value("--jobs");
      if (!value.has_value()) return usage();
      options.num_workers = static_cast<std::size_t>(*value);
    } else if (arg == "--queue") {
      const auto value = option_value("--queue");
      if (!value.has_value() || *value < 1) return usage();
      options.max_queue = static_cast<std::size_t>(*value);
    } else if (arg == "--cache-cost") {
      const auto value = option_value("--cache-cost");
      if (!value.has_value()) return usage();
      options.cache_max_cost = static_cast<std::size_t>(*value);
    } else if (arg == "--deadline-ms") {
      const auto value = option_value("--deadline-ms");
      if (!value.has_value()) return usage();
      options.default_deadline_ms = static_cast<int>(*value);
    } else if (arg == "--max-attempts") {
      const auto value = option_value("--max-attempts");
      if (!value.has_value() || *value < 1) return usage();
      options.retry.max_attempts = static_cast<int>(*value);
    } else if (arg == "--backoff-ms") {
      const auto value = option_value("--backoff-ms");
      if (!value.has_value()) return usage();
      options.retry.backoff_initial_ms = static_cast<int>(*value);
    } else if (arg == "--max-conns") {
      const auto value = option_value("--max-conns");
      if (!value.has_value() || *value < 1) return usage();
      server_options.max_connections = static_cast<std::size_t>(*value);
    } else if (arg == "--idle-timeout-ms") {
      const auto value = option_value("--idle-timeout-ms");
      if (!value.has_value()) return usage();
      server_options.idle_timeout_ms = static_cast<std::size_t>(*value);
    } else {
      return usage();
    }
  }
  if (socket_path.empty()) return usage();

  try {
    service::FlowService service(options);
    service::SocketServer server(service, socket_path, server_options);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::cerr << "lsiq_flowd " << kVersion << ": listening on "
              << socket_path;
    if (!options.store_path.empty()) {
      std::cerr << ", store " << options.store_path;
    }
    std::cerr << "\n";
    server.serve();
    g_server = nullptr;
    // Destructors drain the lanes (FlowService::shutdown) and unlink the
    // socket; a signal or a drain/shutdown request are all clean exits.
    return EXIT_SUCCESS;
  } catch (const lsiq::Error& e) {
    std::cerr << "lsiq_flowd: error [" << error_code_name(e.code())
              << "]: " << e.what() << "\n";
    return EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "lsiq_flowd: internal error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
