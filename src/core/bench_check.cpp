#include "core/bench_check.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json_reader.h"

namespace mphls {

namespace {

/// How one metric is judged against its baseline.
enum class RuleKind {
  True,          ///< current must be boolean true (baseline unused)
  ZeroInt,       ///< current must be exactly 0 (baseline unused)
  NearZero,      ///< |current| <= slack (baseline unused)
  LowerBetter,   ///< current <= baseline * factor + slack
  HigherBetter,  ///< current >= baseline / factor - slack
  Equal,         ///< current == baseline exactly (config invariants)
};

struct Rule {
  const char* file;    ///< report filename, e.g. "BENCH_dse.json"
  const char* path;    ///< dotted path into the report
  RuleKind kind;
  double factor = 1;   ///< tolerance band multiplier
  double slack = 0;    ///< absolute allowance on top of the band
};

// Timing bands are deliberately loose (2-3x + absolute slack): CI runs
// on a shared single-CPU container where wall time jitters freely. The
// gate exists to catch order-of-magnitude regressions and broken
// invariants, not to police noise.
constexpr Rule kRules[] = {
    {"BENCH_dse.json", "deterministic", RuleKind::True},
    {"BENCH_dse.json", "verilog_identical", RuleKind::True},
    {"BENCH_dse.json", "points", RuleKind::Equal},
    {"BENCH_dse.json", "wall_seconds", RuleKind::LowerBetter, 2.5, 1.0},
    {"BENCH_dse.json", "speedup_vs_legacy", RuleKind::HigherBetter, 2.0, 0.2},
    {"BENCH_sched.json", "all_equal", RuleKind::True},
    {"BENCH_sched.json", "min_speedup", RuleKind::HigherBetter, 2.0, 0.2},
    {"BENCH_sim.json", "behav_speedup_geomean", RuleKind::HigherBetter, 2.0,
     0.2},
    {"BENCH_sim.json", "rtl_speedup_geomean", RuleKind::HigherBetter, 2.0,
     0.2},
    {"BENCH_sta.json", "all_closed", RuleKind::True},
    // Timing-model output, not wall time: deterministic, so exact.
    {"BENCH_sta.json", "worst_slack", RuleKind::Equal},
    {"BENCH_sta.json", "wall_seconds", RuleKind::LowerBetter, 2.5, 1.0},
    {"BENCH_serve.json", "errors.transport", RuleKind::ZeroInt},
    {"BENCH_serve.json", "errors.http", RuleKind::ZeroInt},
    {"BENCH_serve.json", "errors.invalid_json", RuleKind::ZeroInt},
    {"BENCH_serve.json", "latency.p99_ms", RuleKind::LowerBetter, 3.0, 25.0},
    {"BENCH_serve.json", "requests_per_second", RuleKind::HigherBetter, 3.0,
     1.0},
    {"BENCH_serve.json", "cache.hit_rate", RuleKind::HigherBetter, 2.0, 0.05},
};

constexpr const char* kReportFiles[] = {
    "BENCH_dse.json", "BENCH_sched.json", "BENCH_sim.json", "BENCH_sta.json",
    "BENCH_serve.json"};

const char* ruleKindName(RuleKind k) {
  switch (k) {
    case RuleKind::True: return "true";
    case RuleKind::ZeroInt: return "zero";
    case RuleKind::NearZero: return "near_zero";
    case RuleKind::LowerBetter: return "lower_better";
    case RuleKind::HigherBetter: return "higher_better";
    case RuleKind::Equal: return "equal";
  }
  return "?";
}

std::unique_ptr<json::Node> loadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return nullptr;
  std::ostringstream ss;
  ss << in.rdbuf();
  return json::parse(ss.str());
}

/// Walk a dotted path ("latency.p99_ms") through nested objects.
const json::Node* lookup(const json::Node& root, std::string_view path) {
  const json::Node* n = &root;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    std::size_t dot = path.find('.', pos);
    if (dot == std::string_view::npos) dot = path.size();
    n = n->get(path.substr(pos, dot - pos));
    if (n == nullptr) return nullptr;
    pos = dot + 1;
  }
  return n;
}

struct CheckResult {
  const Rule* rule = nullptr;
  bool pass = false;
  std::string detail;  ///< human-readable pass/fail explanation
  double current = 0;
  double baseline = 0;
  bool haveBaseline = false;
};

CheckResult evaluate(const Rule& rule, const json::Node& report,
                     const json::Node* baseline) {
  CheckResult r;
  r.rule = &rule;
  const json::Node* cur = lookup(report, rule.path);
  if (cur == nullptr) {
    r.detail = "missing in report";
    return r;
  }
  char buf[160];
  switch (rule.kind) {
    case RuleKind::True:
      r.pass = cur->isBool() && cur->boolean();
      r.detail = r.pass ? "true" : "expected true";
      return r;
    case RuleKind::ZeroInt:
      r.current = cur->number(-1);
      r.pass = cur->isNumber() && r.current == 0;
      std::snprintf(buf, sizeof buf, "%g (expected 0)", r.current);
      r.detail = r.pass ? "0" : buf;
      return r;
    case RuleKind::NearZero:
      r.current = cur->number();
      r.pass = cur->isNumber() && r.current >= -rule.slack &&
               r.current <= rule.slack;
      std::snprintf(buf, sizeof buf, "%g (|x| <= %g)", r.current, rule.slack);
      r.detail = buf;
      return r;
    default:
      break;
  }
  // Baseline-relative kinds from here on.
  if (!cur->isNumber()) {
    r.detail = "not a number in report";
    return r;
  }
  r.current = cur->number();
  const json::Node* base =
      baseline != nullptr ? lookup(*baseline, rule.path) : nullptr;
  if (base == nullptr || !base->isNumber()) {
    r.detail = "no baseline";
    return r;
  }
  r.haveBaseline = true;
  r.baseline = base->number();
  double limit = 0;
  switch (rule.kind) {
    case RuleKind::LowerBetter:
      limit = r.baseline * rule.factor + rule.slack;
      r.pass = r.current <= limit;
      std::snprintf(buf, sizeof buf, "%g vs baseline %g (limit <= %g)",
                    r.current, r.baseline, limit);
      break;
    case RuleKind::HigherBetter:
      limit = r.baseline / rule.factor - rule.slack;
      r.pass = r.current >= limit;
      std::snprintf(buf, sizeof buf, "%g vs baseline %g (limit >= %g)",
                    r.current, r.baseline, limit);
      break;
    case RuleKind::Equal:
      r.pass = r.current == r.baseline;
      std::snprintf(buf, sizeof buf, "%g vs baseline %g (exact)", r.current,
                    r.baseline);
      break;
    default:
      break;
  }
  r.detail = buf;
  return r;
}

std::string findReport(const std::vector<std::string>& dirs,
                       const char* file) {
  for (const std::string& d : dirs) {
    const std::string path = d.empty() ? file : d + "/" + file;
    std::ifstream in(path);
    if (in) return path;
  }
  return "";
}

}  // namespace

int runBenchCheck(const BenchCheckOptions& opts) {
  json::Node verdict = json::Node::object();
  json::Node files = json::Node::array();
  int comparedFiles = 0;
  int passed = 0;
  int failed = 0;
  int skippedNoBaseline = 0;

  for (const char* file : kReportFiles) {
    const std::string reportPath = findReport(opts.inDirs, file);
    json::Node fj = json::Node::object();
    fj["file"] = std::string(file);
    if (reportPath.empty()) {
      fj["status"] = std::string("not_found");
      files.push(std::move(fj));
      continue;
    }
    auto report = loadJson(reportPath);
    if (!report) {
      fj["status"] = std::string("unreadable");
      files.push(std::move(fj));
      std::fprintf(stderr, "bench --check: cannot parse %s\n",
                   reportPath.c_str());
      ++failed;
      continue;
    }
    auto baseline = loadJson(opts.baselineDir + "/" + file);
    if (!baseline && !opts.quiet)
      std::fprintf(stderr,
                   "bench --check: no baseline %s/%s "
                   "(baseline-relative checks skipped)\n",
                   opts.baselineDir.c_str(), file);
    ++comparedFiles;
    fj["status"] = std::string("compared");
    fj["report"] = reportPath;
    fj["baseline"] = static_cast<bool>(baseline);
    json::Node checks = json::Node::array();
    for (const Rule& rule : kRules) {
      if (std::string_view(rule.file) != file) continue;
      const CheckResult r = evaluate(rule, *report, baseline.get());
      const bool baselineRelative = rule.kind == RuleKind::LowerBetter ||
                                    rule.kind == RuleKind::HigherBetter ||
                                    rule.kind == RuleKind::Equal;
      json::Node cj = json::Node::object();
      cj["metric"] = std::string(rule.path);
      cj["kind"] = std::string(ruleKindName(rule.kind));
      if (baselineRelative && !r.haveBaseline) {
        cj["status"] = std::string("skipped");
        cj["detail"] = r.detail;
        ++skippedNoBaseline;
      } else {
        cj["status"] = std::string(r.pass ? "pass" : "fail");
        cj["detail"] = r.detail;
        if (r.pass) ++passed; else ++failed;
        if (!opts.quiet || !r.pass)
          std::printf("%-5s %s %s: %s\n", r.pass ? "ok" : "FAIL", file,
                      rule.path, r.detail.c_str());
      }
      checks.push(std::move(cj));
    }
    fj["checks"] = std::move(checks);
    files.push(std::move(fj));
  }

  const bool ok = failed == 0 && comparedFiles > 0;
  verdict["files"] = std::move(files);
  verdict["compared_files"] = comparedFiles;
  verdict["passed"] = passed;
  verdict["failed"] = failed;
  verdict["skipped_no_baseline"] = skippedNoBaseline;
  verdict["ok"] = ok;
  if (!opts.outFile.empty()) (void)json::writeFile(opts.outFile, verdict);
  if (comparedFiles == 0)
    std::fprintf(stderr,
                 "bench --check: no BENCH_*.json found in the input "
                 "directories\n");
  if (!opts.quiet)
    std::printf("bench --check: %d file(s), %d passed, %d failed, "
                "%d skipped -> %s\n",
                comparedFiles, passed, failed, skippedNoBaseline,
                ok ? "OK" : "REGRESSED");
  return ok ? 0 : 1;
}

}  // namespace mphls
