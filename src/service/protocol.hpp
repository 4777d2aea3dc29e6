// The lsiq_flowd wire protocol: line-delimited flat JSON over a UNIX
// socket.
//
// One request = one line = one flat JSON object (util/json.hpp); the
// server answers with one or more lines and is then ready for the next
// request on the same connection. Responses always carry an "ok" boolean;
// failures add "error_code" (a stable util/error.hpp name), "transient"
// and "error" text, so a client can triage a refusal — queue_full is
// worth a backoff-retry, shutdown is not — without parsing prose.
//
// Requests (field table in README.md "Flow service"):
//
//   {"op":"submit","spec":PATH[,"priority":N][,"deadline_ms":N]}
//   {"op":"submit","spec_text":TEXT[,...]}       inline spec, spooled
//   {"op":"status","job":N}
//   {"op":"result","job":N}                      full record of a done job
//   {"op":"cancel","job":N}
//   {"op":"list"}                                header + one line per job
//   {"op":"stats"}
//   {"op":"ping"}
//   {"op":"drain"}                               finish queue, then exit
//   {"op":"shutdown"}                            cancel queue, then exit
//
// This header is shared by the server (src/service/server.cpp) and the
// client mode of tools/lsiq_flow, so the two cannot drift.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "flow/batch.hpp"
#include "service/service.hpp"
#include "util/error.hpp"

namespace lsiq::service {

/// One parsed request line. Exactly one of the op-specific field groups
/// is meaningful, keyed by `op`.
struct Request {
  std::string op;
  std::string spec;       ///< submit: spec file path
  std::string spec_text;  ///< submit: inline spec body (spooled by server)
  int priority = 0;
  int deadline_ms = -1;   ///< -1 = server default
  std::uint64_t job = 0;
  bool has_job = false;
};

/// Serialize a request as one wire line ('\n' not included).
[[nodiscard]] std::string format_request(const Request& request);

/// Parse one wire line; nullopt when the line is not a flat JSON object
/// or has no string "op" field. (Unknown ops parse fine — the server
/// rejects them with an error RESPONSE, which is kinder to a newer
/// client than a dropped connection.)
[[nodiscard]] std::optional<Request> parse_request(const std::string& line);

// ---- response builders (one line each, '\n' not included) ----

[[nodiscard]] std::string ok_response();

/// {"ok":false,"error_code":...,"transient":...,"error":...}
[[nodiscard]] std::string error_response(ErrorCode code,
                                         const std::string& message);

/// submit: {"ok":true,"job":N,"state":...}
[[nodiscard]] std::string submit_response(std::uint64_t job, JobState state);

/// status/list body: {"ok":true,"job":N,"spec":...,"state":...,
/// "priority":N[,"result":...,"error_code":...]}
[[nodiscard]] std::string job_response(const JobInfo& info);

/// result: {"ok":true,"job":N, <every BatchRecord field>}
[[nodiscard]] std::string result_response(const JobInfo& info);

/// cancel: {"ok":true,"job":N,"cancelled":bool}
[[nodiscard]] std::string cancel_response(std::uint64_t job, bool cancelled);

/// list header: {"ok":true,"count":N}
[[nodiscard]] std::string list_header_response(std::size_t count);

/// stats: {"ok":true,"queued":...,...,"cache_evictions":...,
///        "cache_proofs":...}
[[nodiscard]] std::string stats_response(const ServiceStats& stats);

/// ping: {"ok":true,"version":...}
[[nodiscard]] std::string ping_response();

}  // namespace lsiq::service
