#include "flow/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "flow/flow.hpp"
#include "flow/spec_io.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace lsiq::flow {

namespace {

namespace json = util::json;

std::string format_hash(std::uint64_t hash) {
  char text[32];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

/// The whole file, or nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Bound a failure message: long enough for every real diagnostic in the
/// library, short enough that one pathological what() cannot bloat the
/// store.
std::string sanitize_message(const std::string& message) {
  constexpr std::size_t kMaxLength = 2000;
  if (message.size() <= kMaxLength) return message;
  return message.substr(0, kMaxLength) + "...";
}

void append_record_fields(std::string& out, const BatchRecord& record,
                          bool canonical) {
  out += "{\"spec\":";
  json::append_string(out, record.spec);
  out += ",\"hash\":";
  json::append_string(out, format_hash(record.hash));
  out += ",\"status\":";
  json::append_string(out, record.status);
  out += ",\"error_code\":";
  json::append_string(out, error_code_name(record.error_code));
  out += ",\"transient\":";
  out += record.transient ? "true" : "false";
  out += ",\"attempts\":" + std::to_string(record.attempts);
  if (!canonical) {
    out += ",\"wall_ms\":" + json::format_double(record.wall_ms);
    out += ",\"resumed\":";
    out += record.resumed ? "true" : "false";
  }
  out += ",\"patterns\":" + std::to_string(record.patterns);
  out += ",\"classes\":" + std::to_string(record.classes);
  out += ",\"coverage\":" + json::format_double(record.coverage);
  out += ",\"dppm\":" + json::format_double(record.dppm);
  out += ",\"error\":";
  json::append_string(out, record.error);
  out += "}";
}

// ---- running one spec ----

/// One attempt, start to finish, inside the caller's catch boundary.
/// Fills the ok-summary fields only when the whole flow succeeded.
void run_spec_once(const std::string& path, ArtifactCache& cache,
                   const BatchOptions& options, BatchRecord* record) {
  std::optional<util::DeadlineScope> watchdog;
  if (options.deadline_ms > 0) {
    watchdog.emplace(std::chrono::milliseconds(options.deadline_ms));
  }
  const SpecFile file = read_spec_file(path);
  if (file.circuit.empty()) {
    throw Error("spec file names no circuit", ErrorCode::kInvalidSpec);
  }
  validate_or_throw(file.spec);
  // validate() guaranteed the model name resolves.
  const fault_model::FaultModel model =
      *fault_model::fault_model_from_name(file.spec.fault_model.kind);
  const std::shared_ptr<const ArtifactCache::Artifacts> artifacts =
      cache.get(file.circuit, model);
  if (options.check_only) {
    // Lint-before-run: the analyze gate only. A LintError escapes to the
    // retry boundary and becomes a permanent "lint" failure record.
    check_detailed(*artifacts->faults, file.spec, *artifacts->bundle);
    record->classes = artifacts->faults->class_count();
    return;
  }
  const FlowResult result = run(*artifacts->faults, file.spec,
                                *artifacts->bundle);

  record->patterns = result.patterns.size();
  record->classes = artifacts->faults->class_count();
  record->coverage =
      result.curve.has_value() ? result.curve->final_coverage() : 0.0;
  const double delivered = result.bist.has_value()
                               ? result.bist->signature_coverage
                               : record->coverage;
  record->dppm =
      result.analyzer.has_value() ? result.analyzer->dppm(delivered) : 0.0;
}

}  // namespace

// ---- spec-content hashing (checkpoint staleness detection) ----

std::uint64_t hash_spec_file(const std::string& path) {
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes.has_value()) return 0;
  std::uint64_t hash = util::fnv1a(*bytes);
  SpecFile file;
  try {
    file = read_spec_string(*bytes);
  } catch (const std::exception&) {
    return hash;
  }
  // Each file is folded in behind its length, so bytes moved from one
  // file into the next do not hash alike.
  const auto fold = [&](const std::string& content) {
    hash = util::fnv1a(std::to_string(content.size()) + '\n', hash);
    hash = util::fnv1a(content, hash);
  };
  try {
    const CircuitSource circuit = resolve_circuit(file.circuit);
    if (circuit.bench_text.has_value()) fold(*circuit.bench_text);
  } catch (const IoError&) {
    return 0;
  }
  if (file.spec.source.kind == "file") {
    const std::optional<std::string> patterns =
        read_file(file.spec.source.file);
    if (!patterns.has_value()) return 0;
    fold(*patterns);
  }
  return hash;
}

bool resumable(const BatchRecord& record, const std::string& path) {
  return record.status == "ok" && record.hash != 0 &&
         record.hash == hash_spec_file(path);
}

// ---- RetryPolicy ----

int RetryPolicy::backoff_ms(int attempt) const {
  if (backoff_initial_ms <= 0) return 0;
  double delay = backoff_initial_ms;
  for (int k = 1; k < attempt; ++k) {
    delay *= kBackoffMultiplier;
    if (delay >= kBackoffMaxMs) break;
  }
  return static_cast<int>(std::min<double>(delay, kBackoffMaxMs));
}

// ---- BatchRecord ----

std::string BatchRecord::to_jsonl() const {
  std::string out;
  append_record_fields(out, *this, /*canonical=*/false);
  return out;
}

std::string BatchRecord::canonical_jsonl() const {
  std::string out;
  append_record_fields(out, *this, /*canonical=*/true);
  return out;
}

std::optional<BatchRecord> BatchRecord::from_jsonl(const std::string& line) {
  std::map<std::string, json::Value> values;
  if (!json::parse_flat_object(line, &values)) return std::nullopt;

  using Kind = json::Value::Kind;
  const json::Value* spec = json::find(values, "spec", Kind::kString);
  const json::Value* hash = json::find(values, "hash", Kind::kString);
  const json::Value* status = json::find(values, "status", Kind::kString);
  const json::Value* code = json::find(values, "error_code", Kind::kString);
  const json::Value* transient = json::find(values, "transient", Kind::kBool);
  const json::Value* attempts = json::find(values, "attempts", Kind::kNumber);
  const json::Value* wall_ms = json::find(values, "wall_ms", Kind::kNumber);
  const json::Value* patterns = json::find(values, "patterns", Kind::kNumber);
  const json::Value* classes = json::find(values, "classes", Kind::kNumber);
  const json::Value* coverage = json::find(values, "coverage", Kind::kNumber);
  const json::Value* dppm = json::find(values, "dppm", Kind::kNumber);
  const json::Value* error = json::find(values, "error", Kind::kString);
  if (spec == nullptr || hash == nullptr || status == nullptr ||
      code == nullptr || transient == nullptr || attempts == nullptr ||
      patterns == nullptr || classes == nullptr || coverage == nullptr ||
      dppm == nullptr || error == nullptr) {
    return std::nullopt;
  }
  if (status->text != "ok" && status->text != "failed") return std::nullopt;
  const std::optional<ErrorCode> parsed_code =
      error_code_from_name(code->text);
  if (!parsed_code.has_value()) return std::nullopt;
  // Counts outside their type's range (or not integers at all) are a
  // torn or foreign line, like any other malformation.
  const std::optional<std::int64_t> attempt_count =
      json::integer(*attempts, 0, INT_MAX);
  const std::optional<std::int64_t> pattern_count =
      json::integer(*patterns, 0, json::kMaxExactInteger);
  const std::optional<std::int64_t> class_count =
      json::integer(*classes, 0, json::kMaxExactInteger);
  if (!attempt_count || !pattern_count || !class_count) return std::nullopt;

  BatchRecord record;
  record.spec = spec->text;
  try {
    record.hash = std::stoull(hash->text, nullptr, 16);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  record.status = status->text;
  record.error_code = *parsed_code;
  record.transient = transient->boolean;
  record.attempts = static_cast<int>(*attempt_count);
  record.wall_ms = wall_ms != nullptr ? wall_ms->number : 0.0;
  const json::Value* resumed = json::find(values, "resumed", Kind::kBool);
  record.resumed = resumed != nullptr && resumed->boolean;
  record.patterns = static_cast<std::size_t>(*pattern_count);
  record.classes = static_cast<std::size_t>(*class_count);
  record.coverage = coverage->number;
  record.dppm = dppm->number;
  record.error = error->text;
  return record;
}

// ---- ResultStore ----

ResultStore::ResultStore(const std::string& path, std::ostream* stream,
                         Mode mode)
    : path_(path), stream_(stream) {
  if (!path.empty()) {
    file_.emplace(path, mode == Mode::kTruncate ? std::ios::trunc
                                                : std::ios::app);
    if (!*file_) {
      throw IoError("cannot open result store for writing: " + path);
    }
  }
}

void ResultStore::append(const BatchRecord& record) {
  const std::string line = record.to_jsonl();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_.has_value()) {
    *file_ << line << '\n' << std::flush;
    if (!*file_) {
      throw IoError("result store write failed: " + path_);
    }
  }
  if (stream_ != nullptr) {
    *stream_ << line << '\n' << std::flush;
  }
}

std::map<std::string, BatchRecord> load_result_store(
    const std::string& path) {
  std::map<std::string, BatchRecord> records;
  std::ifstream in(path);
  if (!in) return records;  // first run: nothing to resume
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::optional<BatchRecord> record = BatchRecord::from_jsonl(line);
    if (record.has_value()) records[record->spec] = std::move(*record);
  }
  return records;
}

// ---- running one spec (public boundary) ----

BatchRecord run_spec_with_retry(const std::string& path, ArtifactCache& cache,
                                const BatchOptions& options) {
  BatchRecord record;
  record.spec = path;
  record.hash = hash_spec_file(path);
  const auto start = std::chrono::steady_clock::now();
  int attempt = 0;
  while (true) {
    ++attempt;
    ErrorCode code = ErrorCode::kOk;
    std::string message;
    try {
      run_spec_once(path, cache, options, &record);
    } catch (const Error& e) {
      code = e.code();
      message = e.what();
    } catch (const std::exception& e) {
      code = ErrorCode::kUnknown;
      message = e.what();
    } catch (...) {
      code = ErrorCode::kUnknown;
      message = "non-standard exception";
    }
    if (code == ErrorCode::kOk) {
      record.status = "ok";
      record.error_code = ErrorCode::kOk;
      record.transient = false;
      record.error.clear();
      break;
    }
    record.status = "failed";
    record.error_code = code;
    record.transient = is_transient(code);
    record.error = sanitize_message(message);
    if (record.transient && attempt < options.retry.max_attempts) {
      const int delay_ms = options.retry.backoff_ms(attempt);
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      continue;
    }
    break;
  }
  record.attempts = attempt;
  record.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return record;
}

// ---- BatchResult ----

std::string BatchResult::canonical() const {
  std::string out;
  for (const BatchRecord& record : records) {
    out += record.canonical_jsonl();
    out += '\n';
  }
  return out;
}

std::string BatchResult::summary() const {
  std::ostringstream out;
  std::size_t transient_failures = 0;
  for (const BatchRecord& record : records) {
    if (record.status == "failed" && record.transient) ++transient_failures;
  }
  out << "batch: " << records.size() << " specs, " << ok_count << " ok, "
      << failed_count << " failed";
  if (transient_failures > 0) {
    out << " (" << transient_failures << " transient)";
  }
  out << ", " << resumed_count << " resumed from checkpoint; artifact cache "
      << cache_misses << " built, " << cache_hits << " reused; "
      << cache_proofs << " circuit proof" << (cache_proofs == 1 ? "" : "s")
      << " built";
  return out.str();
}

// ---- manifest expansion ----

std::vector<std::string> read_manifest(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> specs;
  std::error_code fs_error;
  if (fs::is_directory(path, fs_error)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.path().extension() == ".spec" &&
          entry.is_regular_file()) {
        specs.push_back(entry.path().string());
      }
    }
    std::sort(specs.begin(), specs.end());
    if (specs.empty()) {
      throw Error("manifest directory contains no .spec files: " + path,
                  ErrorCode::kInvalidSpec);
    }
    return specs;
  }

  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open manifest: " + path);
  }
  const fs::path base = fs::path(path).parent_path();
  std::string raw;
  while (std::getline(in, raw)) {
    const std::size_t comment = raw.find('#');
    if (comment != std::string::npos) raw.erase(comment);
    // Trim whitespace.
    std::size_t first = 0;
    std::size_t last = raw.size();
    while (first < last && std::isspace(static_cast<unsigned char>(
                               raw[first])) != 0) {
      ++first;
    }
    while (last > first && std::isspace(static_cast<unsigned char>(
                               raw[last - 1])) != 0) {
      --last;
    }
    const std::string entry = raw.substr(first, last - first);
    if (entry.empty()) continue;
    const fs::path spec_path(entry);
    specs.push_back(spec_path.is_absolute() ? spec_path.string()
                                            : (base / spec_path).string());
  }
  if (specs.empty()) {
    throw Error("manifest lists no specs: " + path, ErrorCode::kInvalidSpec);
  }
  return specs;
}

// ---- the batch loop ----

BatchResult run_batch(const std::vector<std::string>& specs,
                      const BatchOptions& options) {
  LSIQ_EXPECT(options.retry.max_attempts >= 1,
              "run_batch: retry.max_attempts must be >= 1");
  BatchResult result;
  result.records.resize(specs.size());
  std::vector<char> done(specs.size(), 0);

  // Resume: carry over unchanged-ok records before the store is
  // truncated for rewriting. Failures are always re-attempted.
  std::map<std::string, BatchRecord> carried;
  if (!options.checkpoint.empty() && options.resume) {
    carried = load_result_store(options.checkpoint);
  }

  ResultStore store(options.checkpoint, options.stream,
                    ResultStore::Mode::kTruncate);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = carried.find(specs[i]);
    if (it == carried.end() || !resumable(it->second, specs[i])) {
      continue;  // failed, or the spec changed since: rerun it
    }
    result.records[i] = it->second;
    result.records[i].resumed = true;
    done[i] = 1;
    store.append(result.records[i]);
  }

  ArtifactCache cache(options.cache_max_cost);
  const std::size_t pending = static_cast<std::size_t>(
      std::count(done.begin(), done.end(), 0));
  if (pending > 0) {
    // Lanes claim manifest indices from a shared counter; each record is
    // written to its manifest slot, so result order is independent of
    // scheduling. Spec failures are records (run_spec_with_retry never
    // throws); anything escaping a lane — a checkpoint-write IoError, an
    // armed "batch.record" failpoint — aborts the batch via run_lanes'
    // first-exception rethrow, leaving the store a valid prefix.
    std::atomic<std::size_t> next{0};
    util::run_lanes(
        std::min(util::resolve_worker_count(options.num_workers), pending),
        [&](std::size_t) {
          while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= specs.size()) return;
            if (done[i] != 0) continue;
            BatchRecord record =
                run_spec_with_retry(specs[i], cache, options);
            LSIQ_FAILPOINT("batch.record");
            store.append(record);
            result.records[i] = std::move(record);
          }
        });
  }

  for (const BatchRecord& record : result.records) {
    if (record.status == "ok") ++result.ok_count;
    if (record.status == "failed") ++result.failed_count;
    if (record.resumed) ++result.resumed_count;
  }
  const ArtifactCache::Stats cache_stats = cache.stats();
  result.cache_hits = cache_stats.hits;
  result.cache_misses = cache_stats.misses;
  result.cache_proofs = cache_stats.proofs;
  return result;
}

BatchResult run_manifest(const std::string& manifest,
                         const BatchOptions& options) {
  return run_batch(read_manifest(manifest), options);
}

}  // namespace lsiq::flow
