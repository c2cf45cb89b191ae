#include "obs/metrics.h"

#include <cstdio>

#include "common/json_reader.h"

namespace mphls::obs {

namespace {

// CAS loops on the double's bit pattern: lock-free accumulation with
// exact (not lossy) min/max. Relaxed ordering — metric values are
// independent statistics, not synchronization edges.

void atomicAddDouble(std::atomic<std::uint64_t>& bits, double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      cur, std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + v),
      std::memory_order_relaxed)) {
  }
}

void atomicMinDouble(std::atomic<std::uint64_t>& bits, double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (v < std::bit_cast<double>(cur) &&
         !bits.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                     std::memory_order_relaxed)) {
  }
}

void atomicMaxDouble(std::atomic<std::uint64_t>& bits, double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (v > std::bit_cast<double>(cur) &&
         !bits.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                     std::memory_order_relaxed)) {
  }
}

std::size_t bucketIndex(double v) {
  for (std::size_t i = 0; i < Histogram::kBucketBounds.size(); ++i)
    if (v <= Histogram::kBucketBounds[i]) return i;
  return Histogram::kNumBuckets - 1;  // +Inf overflow bucket
}

}  // namespace

void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomicAddDouble(sumBits_, v);
  atomicMinDouble(minBits_, v);
  atomicMaxDouble(maxBits_, v);
  buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Stats Histogram::stats() const {
  Stats s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = std::bit_cast<double>(sumBits_.load(std::memory_order_relaxed));
  const double mn =
      std::bit_cast<double>(minBits_.load(std::memory_order_relaxed));
  const double mx =
      std::bit_cast<double>(maxBits_.load(std::memory_order_relaxed));
  // No (complete) observation yet: report 0, never +-Inf, so JSON
  // exports stay parseable.
  s.min = mn == std::numeric_limits<double>::infinity() ? 0 : mn;
  s.max = mx == -std::numeric_limits<double>::infinity() ? 0 : mx;
  for (std::size_t i = 0; i < kNumBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sumBits_.store(0, std::memory_order_relaxed);
  minBits_.store(kPosInfBits, std::memory_order_relaxed);
  maxBits_.store(kNegInfBits, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

struct MetricsRegistry::Impl {
  mutable std::mutex m;  ///< guards the maps, not instrument values
  // std::map: pointer-stable nodes (handles live as long as the registry)
  // and name-sorted iteration for deterministic export.
  std::map<std::string, Counter> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Histogram> histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->counters[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->gauges[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->histograms[name];
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  Snapshot s;
  s.counters.reserve(impl_->counters.size());
  for (const auto& [name, c] : impl_->counters)
    s.counters.emplace_back(name, c.value());
  s.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, g] : impl_->gauges)
    s.gauges.emplace_back(name, g.value());
  s.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, h] : impl_->histograms)
    s.histograms.emplace_back(name, h.stats());
  return s;
}

namespace {

/// The Prometheus exposition's number format.
void appendNumber(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

json::Node snapshotJson(const MetricsRegistry::Snapshot& s) {
  json::Node doc = json::Node::object();
  json::Node& counters = doc["counters"] = json::Node::object();
  for (const auto& [name, v] : s.counters) counters[name] = v;
  json::Node& gauges = doc["gauges"] = json::Node::object();
  for (const auto& [name, v] : s.gauges) gauges[name] = v;
  json::Node& hists = doc["histograms"] = json::Node::object();
  for (const auto& [name, h] : s.histograms) {
    json::Node& o = hists[name] = json::Node::object();
    o["count"] = h.count;
    o["sum"] = h.sum;
    o["min"] = h.min;
    o["max"] = h.max;
    o["mean"] = h.mean();
  }
  return doc;
}

}  // namespace

std::string MetricsRegistry::toJson() const {
  return snapshotJson(snapshot()).dump();
}

namespace {

/// Sanitize a registry name for Prometheus: `mphls_` prefix, every
/// byte outside [a-zA-Z0-9_] becomes '_', runs collapsed, trailing
/// '_' trimmed ("serve./synth.seconds" -> "mphls_serve_synth_seconds").
std::string promName(const std::string& name) {
  std::string out = "mphls_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    const char mapped = ok ? c : '_';
    if (mapped == '_' && !out.empty() && out.back() == '_') continue;
    out += mapped;
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

}  // namespace

std::string MetricsRegistry::toPrometheus() const {
  const Snapshot s = snapshot();
  std::string out;
  char buf[40];
  for (const auto& [name, v] : s.counters) {
    const std::string n = promName(name) + "_total";
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : s.gauges) {
    const std::string n = promName(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " ";
    appendNumber(out, v);
    out += "\n";
  }
  for (const auto& [name, h] : s.histograms) {
    const std::string n = promName(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < Histogram::kBucketBounds.size(); ++i) {
      cum += h.buckets[i];
      std::snprintf(buf, sizeof buf, "%g", Histogram::kBucketBounds[i]);
      out += n + "_bucket{le=\"";
      out += buf;
      out += "\"} " + std::to_string(cum) + "\n";
    }
    cum += h.buckets[Histogram::kNumBuckets - 1];
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + "\n";
    out += n + "_sum ";
    appendNumber(out, h.sum);
    out += "\n";
    // Derived from the bucket array, not count_, so it matches +Inf
    // even when observations race the scrape.
    out += n + "_count " + std::to_string(cum) + "\n";
  }
  return out;
}

bool MetricsRegistry::writeJson(const std::string& path) const {
  return json::writeFile(path, snapshotJson(snapshot()));
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(impl_->m);
  for (auto& [name, c] : impl_->counters) c.reset();
  for (auto& [name, g] : impl_->gauges) g.reset();
  for (auto& [name, h] : impl_->histograms) h.reset();
}

}  // namespace mphls::obs
