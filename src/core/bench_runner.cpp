#include "core/bench_runner.h"

#include <cstdio>
#include <vector>

#include "common/bench_report.h"
#include "common/json_reader.h"
#include "common/thread_pool.h"
#include "core/designs.h"
#include "core/dse.h"
#include "core/frontend_cache.h"
#include "core/options.h"
#include "ir/analysis.h"
#include "ir/deps.h"
#include "obs/metrics.h"
#include "sched/force_directed.h"
#include "sched/schedule.h"
#include "sta/sta.h"

namespace mphls {

namespace {

/// Deterministic synthetic dataflow block for the scheduler bench: layers
/// of adds/subs with a multiply every few ops, operands drawn a fixed
/// distance back so frames overlap heavily (the force-directed worst-ish
/// case). Unit latency, single block.
Function syntheticDfg(int numOps) {
  Function fn("bench_dfg");
  BlockId b = fn.addBlock("entry");
  std::vector<ValueId> pool;
  for (int i = 0; i < 4; ++i) {
    // Sequential append: GCC 12 -Wrestrict -O3 false positive on the
    // temporary chain (same story as obs/vcd.cpp).
    std::string pname = "p";
    pname += std::to_string(i);
    pool.push_back(fn.emitRead(b, fn.addInput(pname, 16)));
  }
  std::uint64_t state = 0x9E3779B97F4A7C15ull;  // xorshift, fixed seed
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < numOps; ++i) {
    ValueId a = pool[next() % pool.size()];
    ValueId c = pool[next() % pool.size()];
    OpKind k = (next() % 4 == 0) ? OpKind::Mul
               : (next() % 2 == 0) ? OpKind::Add
                                   : OpKind::Sub;
    pool.push_back(fn.emitBinary(b, k, a, c));
  }
  PortId out = fn.addOutput("y", 16);
  fn.emitWrite(b, out, pool.back());
  fn.setReturn(b);
  return fn;
}

bool sameSchedule(const BlockSchedule& a, const BlockSchedule& b) {
  return a.numSteps == b.numSteps && a.step == b.step;
}

/// Time the pre-PR DSE loop: every point re-parses, re-lowers and
/// re-optimizes the source before synthesizing. The frontend-cache speedup
/// in the report is measured against this.
double timeLegacySweep(const std::string& source, int points, int repeats) {
  return timeBest(repeats, [&] {
    for (int n = 1; n <= points; ++n) {
      SynthesisOptions opts;
      opts.scheduler = SchedulerKind::List;
      opts.resources = ResourceLimits::universalSet(n);
      Synthesizer synth(opts);
      (void)synth.synthesizeSource(source);
    }
  });
}

double timeSweep(const std::string& source, int points, int jobs,
                 int repeats) {
  return timeBest(repeats, [&] {
    SynthesisOptions base;
    base.jobs = jobs;
    (void)exploreResourceSweep(source, points, base);
  });
}

}  // namespace

int runBenchSuite(const BenchOptions& opts) {
  const std::string sep = opts.outDir.empty() || opts.outDir.back() == '/'
                              ? ""
                              : "/";
  const std::string src = designs::diffeqSource();
  const int jobs = opts.jobs < 1 ? ThreadPool::hardwareConcurrency()
                                 : opts.jobs;

  // ---------------------------------------------------------------- DSE
  json::Node dse = json::Node::object();
  dse["benchmark"] = "dse_resource_sweep";
  dse["design"] = "diffeq";
  dse["points"] = opts.points;
  dse["jobs"] = jobs;
  dse["repeats"] = opts.repeats;
  dse["hardware_threads"] = ThreadPool::hardwareConcurrency();

  // Determinism first (also warms the frontend cache): the serial and the
  // parallel sweep must agree byte for byte, Verilog included.
  SynthesisOptions detBase;
  detBase.dseCaptureVerilog = true;
  detBase.jobs = 1;
  auto serialPts = exploreResourceSweep(src, opts.points, detBase);
  detBase.jobs = jobs;
  auto parallelPts = exploreResourceSweep(src, opts.points, detBase);
  bool sameVerilog = serialPts.size() == parallelPts.size();
  for (std::size_t i = 0; sameVerilog && i < serialPts.size(); ++i)
    sameVerilog = samePoint(serialPts[i], parallelPts[i]);
  dse["deterministic"] = renderPoints(serialPts) == renderPoints(parallelPts);
  dse["verilog_identical"] = sameVerilog;

  const double legacySec = timeLegacySweep(src, opts.points, opts.repeats);
  const double serialSec = timeSweep(src, opts.points, 1, opts.repeats);
  const double parallelSec = timeSweep(src, opts.points, jobs, opts.repeats);
  dse["wall_seconds_legacy"] = legacySec;
  dse["wall_seconds_jobs1"] = serialSec;
  dse["wall_seconds"] = parallelSec;
  dse["points_per_sec_jobs1"] = serialSec > 0 ? opts.points / serialSec : 0.0;
  dse["points_per_sec"] = parallelSec > 0 ? opts.points / parallelSec : 0.0;
  dse["speedup_vs_1_thread"] = parallelSec > 0 ? serialSec / parallelSec : 0.0;
  dse["speedup_vs_legacy"] = parallelSec > 0 ? legacySec / parallelSec : 0.0;

  // Per-point wall times from the determinism runs (diagnostics).
  json::Node& ptArr = dse["point_wall_seconds"] = json::Node::array();
  for (const auto& p : parallelPts) ptArr.push(p.wallSeconds);

  // Which thread ran each point: the pool worker index plus its tracer
  // track identity (named "dse-<worker>" by the pool, "thread-0" for the
  // serial path on the caller's thread).
  json::Node& thrArr = dse["point_threads"] = json::Node::array();
  for (const auto& p : parallelPts) {
    json::Node t = json::Node::object();
    t["worker"] = p.threadId;
    t["tid"] = p.traceTid;
    t["name"] = p.threadName;
    thrArr.push(std::move(t));
  }

  // Stage breakdown of one representative synthesis (the CLI defaults).
  {
    Synthesizer synth(options::defaults());
    SynthesisResult r = synth.synthesizeSource(src);
    json::Node& st = dse["stage_seconds"] = json::Node::object();
    st["optimize"] = r.stages.optimize;
    st["schedule"] = r.stages.schedule;
    st["allocate"] = r.stages.allocate;
    st["control"] = r.stages.control;
    st["estimate"] = r.stages.estimate;
    st["check"] = r.stages.check;
    st["prove"] = r.stages.prove;
    st["total"] = r.stages.total();
  }

  // Chippe + time sweep, for coverage of all three DSE styles.
  {
    SynthesisOptions base;
    base.jobs = jobs;
    WallTimer t;
    auto chippe = chippeIterate(src, serialPts.back().latencySteps, 8, base);
    dse["chippe_wall_seconds"] = t.seconds();
    dse["chippe_points"] = chippe.size();
    t.reset();
    auto times = exploreTimeSweep(src, 4, base);
    dse["time_sweep_wall_seconds"] = t.seconds();
    dse["time_sweep_points"] = times.size();
  }

  // Unified metrics: the same registry snapshot --stats would export, so
  // bench JSON and metrics JSON can never disagree on the counters.
  {
    const auto snap = obs::MetricsRegistry::global().snapshot();
    json::Node& metrics = dse["metrics"] = json::Node::object();
    json::Node& counters = metrics["counters"] = json::Node::object();
    for (const auto& [name, v] : snap.counters)
      counters[name] = (std::size_t)v;
    json::Node& gauges = metrics["gauges"] = json::Node::object();
    for (const auto& [name, v] : snap.gauges) gauges[name] = v;
    json::Node& hists = metrics["histograms"] = json::Node::object();
    for (const auto& [name, h] : snap.histograms) {
      json::Node hv = json::Node::object();
      hv["count"] = (std::size_t)h.count;
      hv["sum"] = h.sum;
      hv["min"] = h.min;
      hv["max"] = h.max;
      hv["mean"] = h.mean();
      hists[name] = std::move(hv);
    }
  }

  const std::string dsePath = opts.outDir + sep + "BENCH_dse.json";
  if (!json::writeFile(dsePath, dse)) {
    std::fprintf(stderr, "mphls bench: cannot write %s\n", dsePath.c_str());
    return 1;
  }
  if (!opts.quiet)
    std::printf("wrote %s (speedup vs 1 thread: %.2fx, vs legacy: %.2fx)\n",
                dsePath.c_str(), serialSec / parallelSec,
                legacySec / parallelSec);

  // ---------------------------------------------------------- scheduler
  json::Node sched = json::Node::object();
  sched["benchmark"] = "force_directed_incremental";
  json::Node& cases = sched["cases"] = json::Node::array();
  double worstSpeedup = -1;
  bool allEqual = true;

  struct Case {
    std::string name;
    Function fn;
    int slack;
  };
  std::vector<Case> caseList;
  caseList.push_back({"synthetic16", syntheticDfg(16), 2});
  caseList.push_back(
      {"synthetic" + std::to_string(opts.schedOps),
       syntheticDfg(opts.schedOps), 3});
  {
    auto fn =
        FrontendCache::global().get(src, "", SynthesisOptions{}.opt);
    caseList.push_back({"diffeq", fn->clone(), 2});
  }

  for (const auto& c : caseList) {
    const Block& blk = c.fn.block(c.fn.entry());
    BlockDeps deps(c.fn, blk);
    LevelInfo li = computeLevels(deps);
    const int horizon = li.criticalLength + c.slack;

    BlockSchedule inc = forceDirectedSchedule(deps, horizon);
    BlockSchedule ref = forceDirectedScheduleReference(deps, horizon);
    const bool equal = sameSchedule(inc, ref);
    allEqual = allEqual && equal;

    const double incSec = timeBest(
        opts.repeats, [&] { (void)forceDirectedSchedule(deps, horizon); });
    const double refSec = timeBest(opts.repeats, [&] {
      (void)forceDirectedScheduleReference(deps, horizon);
    });
    const double speedup = incSec > 0 ? refSec / incSec : 0.0;
    if (worstSpeedup < 0 || speedup < worstSpeedup) worstSpeedup = speedup;

    json::Node cs = json::Node::object();
    cs["name"] = c.name;
    cs["ops"] = deps.numOps();
    cs["horizon"] = horizon;
    cs["incremental_seconds"] = incSec;
    cs["reference_seconds"] = refSec;
    cs["speedup"] = speedup;
    cs["equal"] = equal;
    cases.push(std::move(cs));
    if (!opts.quiet)
      std::printf("sched %-12s %3zu ops: incremental %.2fx vs reference "
                  "(%s)\n",
                  c.name.c_str(), deps.numOps(), speedup,
                  equal ? "identical schedules" : "SCHEDULES DIFFER");
  }
  sched["all_equal"] = allEqual;
  sched["min_speedup"] = worstSpeedup;
  sched["repeats"] = opts.repeats;

  const std::string schedPath = opts.outDir + sep + "BENCH_sched.json";
  if (!json::writeFile(schedPath, sched)) {
    std::fprintf(stderr, "mphls bench: cannot write %s\n",
                 schedPath.c_str());
    return 1;
  }
  if (!opts.quiet) std::printf("wrote %s\n", schedPath.c_str());
  return 0;
}

int runStaBenchSuite(const BenchOptions& opts) {
  const std::string sep = opts.outDir.empty() || opts.outDir.back() == '/'
                              ? ""
                              : "/";
  WallTimer timer;
  json::Node rep = json::Node::object();
  rep["benchmark"] = "sta_analysis";
  rep["repeats"] = opts.repeats;
  json::Node& arr = rep["designs"] = json::Node::array();

  double worstSlack = 0.0;
  bool closed = true;
  for (const auto& d : designs::all()) {
    Synthesizer synth;
    SynthesisResult res = synth.synthesizeSource(d.source);

    sta::StaResult r = sta::runSta(res.design);
    const double sec = timeBest(
        opts.repeats, [&] { (void)sta::runSta(res.design); });

    json::Node e = json::Node::object();
    e["name"] = d.name;
    e["states"] = r.totalStates;
    e["reachable_states"] = r.reachableStates;
    e["endpoints"] = r.endpointCount;
    e["clock_ns"] = r.clockNs;
    e["cycle_time"] = r.cycleTime;
    e["estimated_cycle_time"] = r.estimatedCycleTime;
    e["worst_slack"] = r.worstSlack;
    e["critical_state"] = r.criticalState;
    e["critical_path_points"] =
        r.paths.empty() ? (std::size_t)0 : r.paths.front().points.size();
    e["structural_cycle_time"] = r.structuralCycleTime;
    e["false_path_endpoints"] = r.falsePathEndpoints;
    e["analysis_seconds"] = sec;
    arr.push(std::move(e));

    if (r.worstSlack < worstSlack) worstSlack = r.worstSlack;
    // At its own estimated clock every builtin must close timing.
    if (r.worstSlack < -1e-9 || r.combLoop) closed = false;
    if (!opts.quiet)
      std::printf("sta %-12s %2zu states, %3zu endpoints: cycle %.3f ns, "
                  "slack %+.3f, %.2f us/run\n",
                  d.name, r.reachableStates, r.endpointCount,
                  r.cycleTime, r.worstSlack, sec * 1e6);
  }
  rep["all_closed"] = closed;
  rep["worst_slack"] = worstSlack;
  rep["wall_seconds"] = timer.seconds();

  const std::string staPath = opts.outDir + sep + "BENCH_sta.json";
  if (!json::writeFile(staPath, rep)) {
    std::fprintf(stderr, "mphls bench: cannot write %s\n", staPath.c_str());
    return 1;
  }
  if (!opts.quiet) std::printf("wrote %s\n", staPath.c_str());
  return closed ? 0 : 1;
}

}  // namespace mphls
