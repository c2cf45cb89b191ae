#include "obs/trace.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json_reader.h"
#include "obs/flight_recorder.h"

namespace mphls::obs {

namespace {

// Per-thread track cache. Keyed by owner so a thread touching a second
// Tracer instance re-registers there; the registry keeps every track alive
// (shared_ptr), so the raw cached pointer never dangles.
thread_local const Tracer* tlsOwner = nullptr;
thread_local Tracer::ThreadBuf* tlsBuf = nullptr;

}  // namespace

struct Tracer::ThreadBuf {
  int tid = 0;
  std::mutex m;  ///< guards name + events (owner appends, exporter reads)
  std::string name;
  std::vector<TraceEvent> events;
};

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}
Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::localBuf() {
  if (tlsOwner == this && tlsBuf != nullptr) return *tlsBuf;
  std::lock_guard<std::mutex> lk(m_);
  auto buf = std::make_shared<ThreadBuf>();
  buf->tid = static_cast<int>(threads_.size());
  buf->name = "thread-" + std::to_string(buf->tid);
  threads_.push_back(buf);
  tlsOwner = this;
  tlsBuf = buf.get();
  return *buf;
}

int Tracer::currentTid() { return localBuf().tid; }

std::string Tracer::currentThreadName() {
  ThreadBuf& b = localBuf();
  std::lock_guard<std::mutex> lk(b.m);
  return b.name;
}

int Tracer::setThreadName(const std::string& name) {
  ThreadBuf& b = localBuf();
  std::lock_guard<std::mutex> lk(b.m);
  b.name = name;
  return b.tid;
}

void Tracer::beginSpanAt(std::string name, double tsMicros,
                         std::string arg) {
  FlightRecorder& fr = FlightRecorder::global();
  if (fr.enabled()) fr.record('B', LogLevel::Info, "trace", name);
  ThreadBuf& b = localBuf();
  std::lock_guard<std::mutex> lk(b.m);
  b.events.push_back({std::move(name), std::move(arg), 'B', tsMicros});
}

void Tracer::endSpanAt(std::string name, double tsMicros) {
  FlightRecorder& fr = FlightRecorder::global();
  if (fr.enabled()) fr.record('E', LogLevel::Info, "trace", name);
  ThreadBuf& b = localBuf();
  std::lock_guard<std::mutex> lk(b.m);
  b.events.push_back({std::move(name), std::string(), 'E', tsMicros});
}

void Tracer::instant(std::string name, std::string arg) {
  if (!enabled()) return;
  FlightRecorder& fr = FlightRecorder::global();
  if (fr.enabled()) fr.record('i', LogLevel::Info, "trace", name);
  ThreadBuf& b = localBuf();
  const double ts = nowMicros();
  std::lock_guard<std::mutex> lk(b.m);
  b.events.push_back({std::move(name), std::move(arg), 'i', ts});
}

std::vector<Tracer::TrackSnapshot> Tracer::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lk(m_);
    bufs = threads_;
  }
  std::vector<TrackSnapshot> out;
  out.reserve(bufs.size());
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->m);
    out.push_back({b->tid, b->name, b->events});
  }
  return out;
}

std::size_t Tracer::eventCount() const {
  std::size_t n = 0;
  for (const auto& t : snapshot()) n += t.events.size();
  return n;
}

void Tracer::clear() {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lk(m_);
    bufs = threads_;
  }
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->m);
    b->events.clear();
  }
}

std::size_t utf8SequenceLength(std::string_view s, std::size_t i) {
  const auto b0 = static_cast<unsigned char>(s[i]);
  if (b0 < 0x80) return 1;
  std::size_t len = 0;
  if ((b0 & 0xe0) == 0xc0) len = 2;
  else if ((b0 & 0xf0) == 0xe0) len = 3;
  else if ((b0 & 0xf8) == 0xf0) len = 4;
  else return 0;
  if (i + len > s.size()) return 0;
  std::uint32_t cp = b0 & (0x7f >> len);
  for (std::size_t k = 1; k < len; ++k) {
    const auto b = static_cast<unsigned char>(s[i + k]);
    if ((b & 0xc0) != 0x80) return 0;
    cp = (cp << 6) | (b & 0x3f);
  }
  static constexpr std::uint32_t kMinForLen[5] = {0, 0, 0x80, 0x800,
                                                  0x10000};
  if (cp < kMinForLen[len]) return 0;                // overlong encoding
  if (cp >= 0xd800 && cp <= 0xdfff) return 0;       // UTF-16 surrogate
  if (cp > 0x10ffff) return 0;                      // beyond Unicode
  return len;
}

void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x80) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
      ++i;
      continue;
    }
    const std::size_t len = utf8SequenceLength(s, i);
    if (len == 0) {
      out += "\xef\xbf\xbd";  // U+FFFD per invalid byte
      ++i;
    } else {
      out.append(s.data() + i, len);
      i += len;
    }
  }
  out += '"';
}

void Tracer::writeChromeTrace(std::ostream& out) const {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lk(m_);
    bufs = threads_;
  }
  // The frame is a Node too, cut open at its empty event list. Events go
  // into the cut one Node at a time, each written out as it is built, so
  // exporting holds one event's tree, never the whole document's.
  json::Node frame = json::Node::object();
  frame["traceEvents"] = json::Node::array();
  frame["displayTimeUnit"] = "ms";
  const std::string shell = frame.dumpLine();
  const std::size_t cut = shell.find('[') + 1;
  out.write(shell.data(), static_cast<std::streamsize>(cut));
  bool first = true;
  std::string line;
  auto emit = [&](const json::Node& ev) {
    line = first ? "\n" : ",\n";
    first = false;
    ev.appendLine(line);
    out << line;
  };
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->m);
    json::Node ev = json::Node::object();
    ev["name"] = "thread_name";
    ev["ph"] = "M";
    ev["pid"] = 1;
    ev["tid"] = b->tid;
    ev["args"]["name"] = b->name;
    emit(ev);
  }
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->m);
    for (const TraceEvent& e : b->events) {
      json::Node ev = json::Node::object();
      ev["name"] = e.name;
      ev["cat"] = "mphls";
      ev["ph"] = std::string(1, e.phase);
      ev["pid"] = 1;
      ev["tid"] = b->tid;
      ev["ts"] = e.tsMicros;
      if (e.phase == 'i') ev["s"] = "t";
      if (!e.arg.empty()) ev["args"]["detail"] = e.arg;
      emit(ev);
    }
  }
  out << '\n' << std::string_view(shell).substr(cut) << '\n';
}

std::string Tracer::chromeTraceJson() const {
  std::ostringstream out;
  writeChromeTrace(out);
  return std::move(out).str();
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  writeChromeTrace(out);
  return static_cast<bool>(out);
}

}  // namespace mphls::obs
