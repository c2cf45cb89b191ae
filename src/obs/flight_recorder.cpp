#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/json_reader.h"
#include "obs/trace.h"

namespace mphls::obs {

namespace {

/// Crash-dump path for the signal handler. Written once by
/// installCrashHandlers before any handler can fire.
char g_crashPath[512] = {};

void copyTruncated(char* dst, std::size_t cap, std::string_view src) {
  std::memset(dst, 0, cap);
  const std::size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
}

// ---- word-atomic slot transfer ----
//
// Ring slots are shared between the owning writer and concurrent
// readers (toJson, the SIGQUIT dump) without a lock. Copying the
// event bytes through relaxed word-size atomics makes a concurrent
// overwrite yield at worst a *torn event* (mixed old/new words) —
// already tolerated by the sanitizing formatters — instead of a data
// race. Relaxed 64-bit loads compile to plain loads, so the dump path
// stays async-signal-safe.

constexpr std::size_t kEventWords = sizeof(FlightEvent) / sizeof(std::uint64_t);
static_assert(sizeof(FlightEvent) % sizeof(std::uint64_t) == 0,
              "FlightEvent must be a whole number of 64-bit words");
static_assert(alignof(FlightEvent) <= alignof(std::uint64_t),
              "word array must be aligned enough for FlightEvent bytes");
static_assert(std::is_trivially_copyable_v<FlightEvent>);

void storeSlot(std::uint64_t* dst, const FlightEvent& e) {
  std::uint64_t words[kEventWords];
  std::memcpy(words, &e, sizeof e);
  for (std::size_t i = 0; i < kEventWords; ++i)
    std::atomic_ref<std::uint64_t>(dst[i]).store(words[i],
                                                 std::memory_order_relaxed);
}

FlightEvent loadSlot(const std::uint64_t* src) {
  std::uint64_t words[kEventWords];
  for (std::size_t i = 0; i < kEventWords; ++i)
    words[i] = std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(src[i]))
                   .load(std::memory_order_relaxed);
  FlightEvent e;
  std::memcpy(&e, words, sizeof e);
  return e;
}

// ---- async-signal-safe formatters (no snprintf, no locale, no
// allocation); each returns the number of bytes written ----

std::size_t fmtU64(char* dst, std::uint64_t v) {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) dst[i] = tmp[n - 1 - i];
  return n;
}

/// Microsecond timestamp with 3 decimals ("12345.678"). Timestamps are
/// tracer-epoch relative, so always non-negative and well within u64.
std::size_t fmtMicros(char* dst, double micros) {
  if (micros < 0) micros = 0;
  const auto whole = static_cast<std::uint64_t>(micros);
  auto frac = static_cast<std::uint64_t>((micros - static_cast<double>(whole))
                                         * 1000.0);
  if (frac > 999) frac = 999;
  std::size_t n = fmtU64(dst, whole);
  dst[n++] = '.';
  dst[n++] = static_cast<char>('0' + frac / 100);
  dst[n++] = static_cast<char>('0' + frac / 10 % 10);
  dst[n++] = static_cast<char>('0' + frac % 10);
  return n;
}

/// Copy a NUL-terminated inline buffer, replacing every byte that
/// would need JSON escaping (or is non-ASCII) with '?'. Keeps the
/// dump parser-safe without any escaping logic in the handler.
std::size_t fmtSanitized(char* dst, const char* src, std::size_t cap) {
  std::size_t n = 0;
  for (; n < cap && src[n] != '\0'; ++n) {
    const auto c = static_cast<unsigned char>(src[n]);
    dst[n] = (c < 0x20 || c >= 0x7f || c == '"' || c == '\\')
                 ? '?'
                 : static_cast<char>(c);
  }
  return n;
}

std::size_t fmtLit(char* dst, const char* lit) {
  std::size_t n = 0;
  for (; lit[n] != '\0'; ++n) dst[n] = lit[n];
  return n;
}

const char* kindName(char kind) {
  switch (kind) {
    case 'L': return "log";
    case 'B': return "span-begin";
    case 'E': return "span-end";
    case 'i': return "instant";
  }
  return "?";
}

const char* levelName(char level) {
  switch (level) {
    case 'D': return "debug";
    case 'I': return "info";
    case 'W': return "warn";
    case 'E': return "error";
  }
  return "?";
}

char levelChar(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return 'D';
    case LogLevel::Info: return 'I';
    case LogLevel::Warn: return 'W';
    case LogLevel::Error: return 'E';
    case LogLevel::Off: return '?';
  }
  return '?';
}

/// Format one event as a JSONL line. `dst` must hold >= 320 bytes
/// (fixed fields ~120 + component 18 + message 96, sanitized 1:1).
std::size_t fmtEvent(char* dst, const FlightEvent& e) {
  std::size_t n = 0;
  n += fmtLit(dst + n, "{\"seq\": ");
  n += fmtU64(dst + n, e.seq);
  n += fmtLit(dst + n, ", \"t_us\": ");
  n += fmtMicros(dst + n, e.tsMicros);
  n += fmtLit(dst + n, ", \"thread\": ");
  n += fmtU64(dst + n, e.thread);
  n += fmtLit(dst + n, ", \"kind\": \"");
  n += fmtLit(dst + n, kindName(e.kind));
  n += fmtLit(dst + n, "\", \"level\": \"");
  n += fmtLit(dst + n, levelName(e.level));
  n += fmtLit(dst + n, "\", \"component\": \"");
  n += fmtSanitized(dst + n, e.component, sizeof e.component);
  n += fmtLit(dst + n, "\", \"msg\": \"");
  n += fmtSanitized(dst + n, e.message, sizeof e.message);
  n += fmtLit(dst + n, "\"}\n");
  return n;
}

/// Buffered signal-safe writer: coalesces small appends into one page
/// per write() call. Short writes retry; errors abandon the dump.
struct FdBuf {
  int fd;
  char buf[4096];
  std::size_t len = 0;
  bool failed = false;

  explicit FdBuf(int fd) : fd(fd) {}
  void flush() {
    std::size_t off = 0;
    while (off < len && !failed) {
      const ssize_t w = ::write(fd, buf + off, len - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        failed = true;
        break;
      }
      off += static_cast<std::size_t>(w);
    }
    len = 0;
  }
  void need(std::size_t n) {
    if (len + n > sizeof buf) flush();
  }
};

void flightSignalHandler(int sig) {
  if (g_crashPath[0] != '\0')
    FlightRecorder::global().dumpToFile(g_crashPath);
  if (sig == SIGQUIT) return;  // daemon keeps running (EINTR in poll)
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::enable(std::size_t eventsPerThread) {
  static std::mutex m;
  std::lock_guard<std::mutex> lk(m);
  if (capacity_ != 0) return;  // idempotent: first capacity wins
  if (eventsPerThread == 0) eventsPerThread = 1;
  for (Ring& r : rings_)
    r.slots = new std::uint64_t[eventsPerThread * kEventWords]();
  capacity_ = eventsPerThread;
  enabled_.store(true, std::memory_order_release);
  Logger::global().refresh();
}

std::size_t FlightRecorder::capacityPerThread() const { return capacity_; }

std::uint64_t FlightRecorder::totalRecorded() const {
  return seq_.load(std::memory_order_relaxed);
}

FlightRecorder::Ring* FlightRecorder::claimRing() {
  static thread_local FlightRecorder* owner = nullptr;
  static thread_local Ring* ring = nullptr;
  if (owner == this) return ring;  // nullptr once the pool is exhausted
  const std::size_t idx = ringsClaimed_.fetch_add(1,
                                                  std::memory_order_relaxed);
  owner = this;
  ring = idx < kMaxThreads ? &rings_[idx] : nullptr;
  if (ring != nullptr) ring->claimed.store(true, std::memory_order_release);
  return ring;
}

void FlightRecorder::record(char kind, LogLevel level,
                            std::string_view component,
                            std::string_view message) {
  if (!enabled()) return;
  Ring* r = claimRing();
  if (r == nullptr) return;
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  FlightEvent e;
  e.tsMicros = Tracer::global().nowMicros();
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.thread = static_cast<std::uint32_t>(Tracer::global().currentTid());
  e.kind = kind;
  e.level = levelChar(level);
  copyTruncated(e.component, sizeof e.component, component);
  copyTruncated(e.message, sizeof e.message, message);
  storeSlot(r->slots + (h % capacity_) * kEventWords, e);
  r->head.store(h + 1, std::memory_order_release);
}

void FlightRecorder::dumpTo(int fd) const {
  FdBuf out(fd);
  char line[512];
  std::size_t n = 0;
  n += fmtLit(line + n, "{\"flight_recorder\": {\"threads\": ");
  const std::size_t claimed =
      std::min(ringsClaimed_.load(std::memory_order_acquire), kMaxThreads);
  n += fmtU64(line + n, claimed);
  n += fmtLit(line + n, ", \"capacity_per_thread\": ");
  n += fmtU64(line + n, capacity_);
  n += fmtLit(line + n, ", \"total_recorded\": ");
  n += fmtU64(line + n, seq_.load(std::memory_order_relaxed));
  n += fmtLit(line + n, "}}\n");
  out.need(n);
  std::memcpy(out.buf + out.len, line, n);
  out.len += n;

  for (std::size_t i = 0; i < claimed && !out.failed; ++i) {
    const Ring& r = rings_[i];
    if (r.slots == nullptr) continue;
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t count =
        std::min<std::uint64_t>(head, capacity_);
    for (std::uint64_t j = head - count; j < head; ++j) {
      // A concurrent overwrite can tear this one event's words; the
      // sanitizing formatters render that harmless.
      const FlightEvent e = loadSlot(r.slots + (j % capacity_) * kEventWords);
      const std::size_t len = fmtEvent(line, e);
      out.need(len);
      std::memcpy(out.buf + out.len, line, len);
      out.len += len;
    }
  }
  out.flush();
}

bool FlightRecorder::dumpToFile(const char* path) const {
  const int fd = ::open(path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;
  dumpTo(fd);
  ::close(fd);
  return true;
}

std::string FlightRecorder::toJson() const {
  const std::size_t claimed =
      std::min(ringsClaimed_.load(std::memory_order_acquire), kMaxThreads);
  std::vector<FlightEvent> events;
  for (std::size_t i = 0; i < claimed; ++i) {
    const Ring& r = rings_[i];
    if (r.slots == nullptr) continue;
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t count = std::min<std::uint64_t>(head, capacity_);
    for (std::uint64_t j = head - count; j < head; ++j)
      events.push_back(loadSlot(r.slots + (j % capacity_) * kEventWords));
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });

  json::Node doc = json::Node::object();
  json::Node& meta = doc["flight_recorder"] = json::Node::object();
  meta["threads"] = claimed;
  meta["capacity_per_thread"] = capacity_;
  meta["total_recorded"] = seq_.load(std::memory_order_relaxed);
  meta["events_retained"] = events.size();
  json::Node& list = doc["events"] = json::Node::array();
  for (const FlightEvent& e : events) {
    json::Node& o = list.push(json::Node::object());
    o["seq"] = e.seq;
    o["t_us"] = e.tsMicros;
    o["thread"] = e.thread;
    o["kind"] = kindName(e.kind);
    o["level"] = levelName(e.level);
    o["component"] = std::string(
        e.component, ::strnlen(e.component, sizeof e.component));
    o["msg"] = std::string(e.message, ::strnlen(e.message, sizeof e.message));
  }
  return doc.dump();
}

void FlightRecorder::installCrashHandlers(const char* path) {
  copyTruncated(g_crashPath, sizeof g_crashPath, path);
  FlightRecorder::global().enable();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = flightSignalHandler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGQUIT, &sa, nullptr);
}

const char* FlightRecorder::crashDumpPath() { return g_crashPath; }

void FlightRecorder::clearForTest() {
  const std::size_t claimed =
      std::min(ringsClaimed_.load(std::memory_order_acquire), kMaxThreads);
  for (std::size_t i = 0; i < claimed; ++i) {
    Ring& r = rings_[i];
    if (r.slots == nullptr) continue;
    r.head.store(0, std::memory_order_release);
  }
}

}  // namespace mphls::obs
