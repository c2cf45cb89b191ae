// Thread-safe leveled structured logger emitting JSONL records.
//
// Each record is one line of JSON, a json::Node written with dumpLine():
//   {"ts":"2026-08-08T12:34:56.789Z","level":"info","component":"serve",
//    "msg":"request","session":7,"ms":1.25}
// (shown wrapped here) — machine-parseable by any log pipeline while
// staying greppable. Integer fields print exactly, 64-bit seeds
// included. Long-running components (serve daemon, fuzz campaigns, DSE
// sweeps) log through the process global; short CLI runs leave it
// disabled.
//
// Cost model mirrors the tracer (trace.h): instrumentation is compiled
// in everywhere and must be near-free when logging is off. A call below
// the active threshold performs exactly one relaxed atomic load — no
// clock read, no allocation, no lock (the null-sink fast path). The
// threshold combines the sink level with the flight recorder's level,
// so a single load gates both destinations.
//
// Rate limiting: a token bucket (per process, not per site) bounds
// sustained sink throughput; dropped records are counted and announced
// by a synthetic "rate limited" notice when capacity returns. The
// flight recorder is NOT rate limited — its ring overwrites itself, so
// the most recent events always survive for post-mortem dumps.
//
// Zero-dependency (std + POSIX + the JSON writer) — see trace.h for
// layering.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace mphls::obs {

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

[[nodiscard]] const char* logLevelName(LogLevel level);
/// Parses "debug"/"info"/"warn"/"error"/"off"; returns Off on unknown.
[[nodiscard]] LogLevel parseLogLevel(std::string_view name);

/// One key=value pair in a structured record. Exact-type constructor
/// overloads keep integer literals from funneling into bool/double. A
/// field only views its key and value, so a call below the threshold
/// allocates nothing; the record's json::Node is built when it is written.
struct LogField {
  enum class Kind { Str, I64, U64, F64, Bool };

  LogField(std::string_view key, std::string_view value)
      : key(key), kind(Kind::Str), str(value) {}
  LogField(std::string_view key, const char* value)
      : key(key), kind(Kind::Str), str(value == nullptr ? "" : value) {}
  LogField(std::string_view key, const std::string& value)
      : key(key), kind(Kind::Str), str(value) {}
  LogField(std::string_view key, int value)
      : key(key), kind(Kind::I64), i64(value) {}
  LogField(std::string_view key, long value)
      : key(key), kind(Kind::I64), i64(value) {}
  LogField(std::string_view key, long long value)
      : key(key), kind(Kind::I64), i64(value) {}
  LogField(std::string_view key, unsigned value)
      : key(key), kind(Kind::U64), u64(value) {}
  LogField(std::string_view key, unsigned long value)
      : key(key), kind(Kind::U64), u64(value) {}
  LogField(std::string_view key, unsigned long long value)
      : key(key), kind(Kind::U64), u64(value) {}
  LogField(std::string_view key, double value)
      : key(key), kind(Kind::F64), f64(value) {}
  LogField(std::string_view key, bool value)
      : key(key), kind(Kind::Bool), b(value) {}

  std::string_view key;
  Kind kind;
  std::string_view str;
  std::int64_t i64 = 0;
  std::uint64_t u64 = 0;
  double f64 = 0;
  bool b = false;
};

/// Process-wide structured logger. Sink configuration (file/stderr,
/// level, rate limit) is mutex-guarded and expected to happen once at
/// startup; the hot path checks a single combined-threshold atomic.
class Logger {
 public:
  [[nodiscard]] static Logger& global();

  /// True when `level` would reach the sink or the flight recorder —
  /// the null-sink fast path (one relaxed atomic load). Call sites may
  /// use it to skip building expensive field values.
  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) >=
           threshold_.load(std::memory_order_relaxed);
  }

  /// Emit one record. No-op below the active threshold.
  void log(LogLevel level, std::string_view component, std::string_view msg,
           std::initializer_list<LogField> fields = {});

  void debug(std::string_view component, std::string_view msg,
             std::initializer_list<LogField> fields = {}) {
    log(LogLevel::Debug, component, msg, fields);
  }
  void info(std::string_view component, std::string_view msg,
            std::initializer_list<LogField> fields = {}) {
    log(LogLevel::Info, component, msg, fields);
  }
  void warn(std::string_view component, std::string_view msg,
            std::initializer_list<LogField> fields = {}) {
    log(LogLevel::Warn, component, msg, fields);
  }
  void error(std::string_view component, std::string_view msg,
             std::initializer_list<LogField> fields = {}) {
    log(LogLevel::Error, component, msg, fields);
  }

  /// Open `path` in append mode as the sink. Returns false (sink
  /// unchanged) if the file cannot be opened.
  bool openFile(const std::string& path);
  /// Route records to stderr (the default sink once a level is set).
  void logToStderr();
  /// Minimum level that reaches the sink. Off (the default) disables
  /// the sink entirely.
  void setLevel(LogLevel level);
  [[nodiscard]] LogLevel level() const;

  /// Token-bucket rate limit on sink writes: sustained `ratePerSec`
  /// records with bursts up to `burst`. 0 = unlimited (default).
  /// Flight-recorder forwarding is never rate limited.
  void setRateLimit(double ratePerSec, double burst);
  /// Records dropped by the rate limiter since startup/reset.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Recompute the combined threshold after the flight recorder's
  /// enable state changes (called by FlightRecorder::enable).
  void refresh();

  /// Test hook: close the sink, restore defaults, zero drop counts.
  void resetForTest();

  Logger();
  ~Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

 private:
  struct Impl;
  Impl* impl_;
  std::atomic<int> threshold_{static_cast<int>(LogLevel::Off)};
};

}  // namespace mphls::obs
