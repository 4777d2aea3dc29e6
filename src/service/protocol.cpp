#include "service/protocol.hpp"

#include <climits>
#include <map>

#include "util/json.hpp"
#include "util/version.hpp"

namespace lsiq::service {

namespace json = util::json;

namespace {

/// Read the optional number field `key` into *out. False when it is
/// present but not a finite integer in [lo, hi].
template <typename T>
bool read_integer(const std::map<std::string, json::Value>& values,
                  const char* key, std::int64_t lo, std::int64_t hi, T* out) {
  const json::Value* value =
      json::find(values, key, json::Value::Kind::kNumber);
  if (value == nullptr) return true;
  const std::optional<std::int64_t> parsed = json::integer(*value, lo, hi);
  if (parsed.has_value()) *out = static_cast<T>(*parsed);
  return parsed.has_value();
}

}  // namespace

std::string format_request(const Request& request) {
  std::string out = "{\"op\":";
  json::append_string(out, request.op);
  if (!request.spec.empty()) {
    out += ",\"spec\":";
    json::append_string(out, request.spec);
  }
  if (!request.spec_text.empty()) {
    out += ",\"spec_text\":";
    json::append_string(out, request.spec_text);
  }
  if (request.priority != 0) {
    out += ",\"priority\":" + std::to_string(request.priority);
  }
  if (request.deadline_ms >= 0) {
    out += ",\"deadline_ms\":" + std::to_string(request.deadline_ms);
  }
  if (request.has_job) {
    out += ",\"job\":" + std::to_string(request.job);
  }
  out += "}";
  return out;
}

std::optional<Request> parse_request(const std::string& line) {
  std::map<std::string, json::Value> values;
  if (!json::parse_flat_object(line, &values)) return std::nullopt;
  using Kind = json::Value::Kind;
  const json::Value* op = json::find(values, "op", Kind::kString);
  if (op == nullptr) return std::nullopt;

  Request request;
  request.op = op->text;
  if (const json::Value* spec = json::find(values, "spec", Kind::kString)) {
    request.spec = spec->text;
  }
  if (const json::Value* text =
          json::find(values, "spec_text", Kind::kString)) {
    request.spec_text = text->text;
  }
  if (!read_integer(values, "priority", INT_MIN, INT_MAX,
                    &request.priority) ||
      !read_integer(values, "deadline_ms", INT_MIN, INT_MAX,
                    &request.deadline_ms) ||
      !read_integer(values, "job", 0, json::kMaxExactInteger, &request.job)) {
    return std::nullopt;  // present but not an integer in range: malformed
  }
  request.has_job = json::find(values, "job", Kind::kNumber) != nullptr;
  return request;
}

std::string ok_response() { return "{\"ok\":true}"; }

std::string error_response(ErrorCode code, const std::string& message) {
  std::string out = "{\"ok\":false,\"error_code\":";
  json::append_string(out, error_code_name(code));
  out += ",\"transient\":";
  out += is_transient(code) ? "true" : "false";
  out += ",\"error\":";
  json::append_string(out, message);
  out += "}";
  return out;
}

std::string submit_response(std::uint64_t job, JobState state) {
  std::string out = "{\"ok\":true,\"job\":" + std::to_string(job);
  out += ",\"state\":";
  json::append_string(out, job_state_name(state));
  out += "}";
  return out;
}

std::string job_response(const JobInfo& info) {
  std::string out = "{\"ok\":true,\"job\":" + std::to_string(info.id);
  out += ",\"spec\":";
  json::append_string(out, info.spec);
  out += ",\"state\":";
  json::append_string(out, job_state_name(info.state));
  out += ",\"priority\":" + std::to_string(info.priority);
  if (info.state == JobState::kDone) {
    out += ",\"result\":";
    json::append_string(out, info.record.status);
    out += ",\"error_code\":";
    json::append_string(out, error_code_name(info.record.error_code));
    out += ",\"resumed\":";
    out += info.record.resumed ? "true" : "false";
  }
  out += "}";
  return out;
}

std::string result_response(const JobInfo& info) {
  // Graft the record's own JSONL fields onto the response envelope: the
  // record serializes as "{...}", so splice past its opening brace.
  const std::string record = info.record.to_jsonl();
  std::string out = "{\"ok\":true,\"job\":" + std::to_string(info.id) + ",";
  out += record.substr(1);
  return out;
}

std::string cancel_response(std::uint64_t job, bool cancelled) {
  std::string out = "{\"ok\":true,\"job\":" + std::to_string(job);
  out += ",\"cancelled\":";
  out += cancelled ? "true" : "false";
  out += "}";
  return out;
}

std::string list_header_response(std::size_t count) {
  return "{\"ok\":true,\"count\":" + std::to_string(count) + "}";
}

std::string stats_response(const ServiceStats& stats) {
  std::string out = "{\"ok\":true";
  out += ",\"queued\":" + std::to_string(stats.queued);
  out += ",\"running\":" + std::to_string(stats.running);
  out += ",\"done\":" + std::to_string(stats.done);
  out += ",\"submitted\":" + std::to_string(stats.submitted);
  out += ",\"completed\":" + std::to_string(stats.completed);
  out += ",\"cancelled\":" + std::to_string(stats.cancelled);
  out += ",\"rejected\":" + std::to_string(stats.rejected);
  out += ",\"resumed\":" + std::to_string(stats.resumed);
  out += ",\"draining\":";
  out += stats.draining ? "true" : "false";
  out += ",\"cache_hits\":" + std::to_string(stats.cache.hits);
  out += ",\"cache_misses\":" + std::to_string(stats.cache.misses);
  out += ",\"cache_evictions\":" + std::to_string(stats.cache.evictions);
  out += ",\"cache_entries\":" + std::to_string(stats.cache.entries);
  out += ",\"cache_cost\":" + std::to_string(stats.cache.cost);
  out += ",\"cache_max_cost\":" + std::to_string(stats.cache.max_cost);
  out += ",\"cache_proofs\":" + std::to_string(stats.cache.proofs);
  out += "}";
  return out;
}

std::string ping_response() {
  std::string out = "{\"ok\":true,\"version\":";
  json::append_string(out, kVersion);
  out += "}";
  return out;
}

}  // namespace lsiq::service
