#include "obs/log.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <mutex>

#include "common/json_reader.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace mphls::obs {

const char* logLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "off";
}

LogLevel parseLogLevel(std::string_view name) {
  if (name == "debug") return LogLevel::Debug;
  if (name == "info") return LogLevel::Info;
  if (name == "warn" || name == "warning") return LogLevel::Warn;
  if (name == "error") return LogLevel::Error;
  return LogLevel::Off;
}

namespace {

/// Wall-clock timestamp as ISO-8601 UTC with milliseconds:
/// "2026-08-08T12:34:56.789Z".
std::string timestamp() {
  std::timespec ts{};
  std::timespec_get(&ts, TIME_UTC);
  std::tm tm{};
  gmtime_r(&ts.tv_sec, &tm);
  char buf[96];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec,
                static_cast<int>(ts.tv_nsec / 1000000));
  return buf;
}

/// The header members every record starts with.
json::Node record(std::string_view level, std::string_view component,
                  std::string_view msg) {
  json::Node r = json::Node::object();
  r["ts"] = timestamp();
  r["level"] = std::string(level);
  r["component"] = std::string(component);
  r["msg"] = std::string(msg);
  return r;
}

json::Node fieldValue(const LogField& f) {
  switch (f.kind) {
    case LogField::Kind::Str: return std::string(f.str);
    case LogField::Kind::I64: return f.i64;
    case LogField::Kind::U64: return f.u64;
    case LogField::Kind::F64: return f.f64;
    case LogField::Kind::Bool: return f.b;
  }
  return {};
}

/// Compact single-line rendering for the flight recorder ring:
/// "msg key=value key=value". Values are truncated by the ring's
/// inline capacity; sanitization happens in the dump path.
void appendCompact(std::string& out, std::string_view msg,
                   std::initializer_list<LogField> fields) {
  out += msg;
  char buf[40];
  for (const LogField& f : fields) {
    out += ' ';
    out += f.key;
    out += '=';
    switch (f.kind) {
      case LogField::Kind::Str: out += f.str; break;
      case LogField::Kind::I64: out += std::to_string(f.i64); break;
      case LogField::Kind::U64: out += std::to_string(f.u64); break;
      case LogField::Kind::F64:
        std::snprintf(buf, sizeof buf, "%.4g", f.f64);
        out += buf;
        break;
      case LogField::Kind::Bool: out += f.b ? "true" : "false"; break;
    }
  }
}

}  // namespace

struct Logger::Impl {
  std::mutex m;  ///< guards everything below (sink config + bucket)
  std::FILE* file = nullptr;  ///< owned sink file (nullptr = stderr)
  LogLevel sinkLevel = LogLevel::Off;
  // Token bucket. rate == 0 disables limiting.
  double rate = 0;
  double burst = 0;
  double tokens = 0;
  double lastRefillMicros = 0;
  std::uint64_t dropped = 0;
  std::uint64_t droppedNotified = 0;  ///< drops already announced

  ~Impl() {
    if (file != nullptr) std::fclose(file);
  }
};

Logger::Logger() : impl_(new Impl) {}
Logger::~Logger() { delete impl_; }

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

void Logger::refresh() {
  std::lock_guard<std::mutex> lk(impl_->m);
  int t = static_cast<int>(impl_->sinkLevel);
  if (FlightRecorder::global().enabled())
    t = std::min(t, static_cast<int>(LogLevel::Debug));
  threshold_.store(t, std::memory_order_relaxed);
}

bool Logger::openFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    if (impl_->file != nullptr) std::fclose(impl_->file);
    impl_->file = f;
  }
  return true;
}

void Logger::logToStderr() {
  std::lock_guard<std::mutex> lk(impl_->m);
  if (impl_->file != nullptr) std::fclose(impl_->file);
  impl_->file = nullptr;
}

void Logger::setLevel(LogLevel level) {
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->sinkLevel = level;
  }
  refresh();
}

LogLevel Logger::level() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->sinkLevel;
}

void Logger::setRateLimit(double ratePerSec, double burst) {
  std::lock_guard<std::mutex> lk(impl_->m);
  impl_->rate = ratePerSec > 0 ? ratePerSec : 0;
  impl_->burst = burst > 0 ? burst : 1;
  impl_->tokens = impl_->burst;
  impl_->lastRefillMicros = Tracer::global().nowMicros();
}

std::uint64_t Logger::dropped() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->dropped;
}

void Logger::resetForTest() {
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    if (impl_->file != nullptr) std::fclose(impl_->file);
    impl_->file = nullptr;
    impl_->sinkLevel = LogLevel::Off;
    impl_->rate = 0;
    impl_->burst = 0;
    impl_->tokens = 0;
    impl_->dropped = 0;
    impl_->droppedNotified = 0;
  }
  refresh();
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view msg,
                 std::initializer_list<LogField> fields) {
  if (!enabled(level) || level == LogLevel::Off) return;

  // Flight recorder first: never rate limited, so the ring always holds
  // the true recent history even when the sink is shedding load.
  FlightRecorder& fr = FlightRecorder::global();
  if (fr.enabled()) {
    std::string compact;
    compact.reserve(msg.size() + 32);
    appendCompact(compact, msg, fields);
    fr.record('L', level, component, compact);
  }

  std::FILE* sink = nullptr;
  std::uint64_t announceDrops = 0;
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    if (static_cast<int>(level) < static_cast<int>(impl_->sinkLevel))
      return;
    if (impl_->rate > 0) {
      const double now = Tracer::global().nowMicros();
      impl_->tokens =
          std::min(impl_->burst, impl_->tokens + (now - impl_->lastRefillMicros)
                                                     / 1e6 * impl_->rate);
      impl_->lastRefillMicros = now;
      if (impl_->tokens < 1) {
        ++impl_->dropped;
        return;
      }
      impl_->tokens -= 1;
      if (impl_->dropped > impl_->droppedNotified) {
        announceDrops = impl_->dropped - impl_->droppedNotified;
        impl_->droppedNotified = impl_->dropped;
      }
    }
    sink = impl_->file;
  }

  std::string line;
  line.reserve(128 + msg.size());
  if (announceDrops > 0) {
    json::Node notice = record("warn", "log", "rate limited");
    notice["dropped"] = announceDrops;
    notice.appendLine(line);
    line += '\n';
  }
  json::Node rec = record(logLevelName(level), component, msg);
  for (const LogField& f : fields) rec[f.key] = fieldValue(f);
  rec.appendLine(line);
  line += '\n';

  // One fwrite per record (lines stay intact across threads: fwrite on
  // the same FILE* is atomic per POSIX) + flush so tails see it live.
  std::FILE* out = sink != nullptr ? sink : stderr;
  std::fwrite(line.data(), 1, line.size(), out);
  std::fflush(out);
}

}  // namespace mphls::obs
