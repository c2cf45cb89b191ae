#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "obs/trace.h"

namespace perfbench {

const std::vector<MetricSpec>& endToEndMetrics() {
  static const std::vector<MetricSpec> kTable = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"lat_p50_ms", "ms"},
      {"lat_p90_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kTable;
}

const std::vector<MetricSpec>& perLayerMetrics() {
  static const std::vector<MetricSpec> kTable = {
      {"wall_s", "s"},
      {"unattributed_share", "ratio"},
      {"trace_overhead_share", "ratio"},
      {"fail_share", "ratio"},
      {"lang.s", "s"},
      {"lang.bytes_per_s", "B/s"},
      {"opt.s", "s"},
      {"opt.ops_removed_share", "ratio"},
      {"core.s", "s"},
      {"core.frontend_cache.hit_ratio", "ratio"},
      {"core.dse.point_s", "s"},
      {"common.pool.busy_share", "ratio"},
      {"sched.s", "s"},
      {"sched.exp", "exponent"},
      {"alloc.s", "s"},
      {"alloc.lifetime.s", "s"},
      {"alloc.reg.s", "s"},
      {"alloc.fu.s", "s"},
      {"alloc.interconnect.s", "s"},
      {"alloc.exp", "exponent"},
      {"alloc.clique.exp", "exponent"},
      {"ctrl.s", "s"},
      {"estim.s", "s"},
      {"check.s", "s"},
      {"check.exp", "exponent"},
      {"sta.s", "s"},
      {"sta.runs_per_point", "runs/point"},
      {"rtl.verilog.s", "s"},
      {"vm.compile.s", "s"},
      {"vm.exec.s", "s"},
      {"fuzz.gen.s", "s"},
      {"fuzz.golden.s", "s"},
      {"serve.handle_ms.p50", "ms"},
      {"serve.handle_ms.p99", "ms"},
      {"serve.wait_ms.p99", "ms"},
      {"serve.gen_lag_ms.p99", "ms"},
      {"serve.lat_ms.low.p50", "ms"},
      {"serve.lat_ms.low.p99", "ms"},
      {"serve.lat_ms.high.p50", "ms"},
      {"serve.lat_ms.high.p99", "ms"},
      {"serve.rate_max_rps", "1/s"},
      {"serve.fresh_share", "ratio"},
  };
  return kTable;
}

std::string resultJson(const RunResult& r,
                       const std::vector<MetricSpec>& table) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : table) {
    auto it = r.metrics.find(m.name);
    if (it == r.metrics.end())
      throw std::logic_error(std::string("metric not measured: ") + m.name);
    const double v = std::isfinite(it->second) ? it->second : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    mphls::obs::appendJsonString(out, m.name);
    out += ": {\"value\": ";
    out += buf;
    out += ", \"unit\": ";
    mphls::obs::appendJsonString(out, m.unit);
    out += "}";
  }
  out += "}}";
  return out;
}

std::string environmentLine() {
  return "hardware_threads=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " build_type=" PERFBENCH_BUILD_TYPE " compiler=" PERFBENCH_COMPILER;
}

double selfPeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return (double)ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
