// fuzz-standard: the fixed per-point costs of the differential fuzzer
// (allocation, stage-exit checks, STA twice per point, co-simulation).
//
// Untraced, each program is one fuzz::runCampaign call with one seed, so
// every program's latency is measured. Traced, the same programs run
// through the campaign's per-program steps called one by one from here
// (fuzz::generateProgram, the unoptimized golden compile and reference
// runs, FrontendCache, Synthesizer, sta::runSta, the checkDesign
// analyzers, the Verilog emitter, vm::RtlSim), each under a span named
// for its layer.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "check/check.h"
#include "common/diag.h"
#include "core/frontend_cache.h"
#include "fuzz/campaign.h"
#include "gen.h"
#include "lang/frontend.h"
#include "opt/pass.h"
#include "rtl/verilog.h"
#include "sta/sta.h"
#include "stats.h"
#include "vm/sim_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mphls;
using obs::TraceSpan;

/// Programs per run, cycled until the window closes. A program's fuzz
/// cost tracks its optimized operation count closely, so the programs are
/// matched to fixed size targets: candidates drawn from the seed's stream
/// (fuzz::generateProgram with its default options) fill kTargetOps
/// (within kTolerance), and every run sees the same mix of sizes whatever
/// its seed. The targets are the (j + 0.5) / 32 quantiles of the optimized
/// op counts of 4000 default generateProgram outputs, so the mix is the
/// generator's own: 16% of its programs lie below 60 ops, 60% in 60..180
/// and 24% above 180 (largest 431; 0.8% above the top target's band).
constexpr double kTargetOps[] = {9,   22,  33,  43,  52,  61,  69,  77,
                                 84,  90,  96,  101, 107, 112, 118, 124,
                                 130, 135, 142, 147, 154, 161, 167, 174,
                                 181, 190, 199, 209, 221, 239, 262, 305};
constexpr std::size_t kPrograms = std::size(kTargetOps);
constexpr double kTolerance = 0.05, kMinToleranceOps = 2;
/// Candidates drawn per run (more only if the targets are not filled by
/// then — about 600 draws at worst), so that set-up time does not depend
/// on how soon a seed's stream fills the rarest sizes.
constexpr std::uint64_t kCandidates = 1000;
constexpr std::size_t kMinCycles = 3;

struct Program {
  std::uint64_t seed = 0;
};

std::vector<Program> programList(std::uint64_t seed) {
  std::vector<std::optional<Program>> slot(kPrograms);
  std::size_t filled = 0;
  for (std::uint64_t k = 0; filled < kPrograms || k < kCandidates; ++k) {
    if (k > 200000) throw std::runtime_error("cannot fill the program sizes");
    Program p;
    p.seed = subSeed(seed, 1000 + k);
    DiagEngine diags;
    auto fn = compileBdl(fuzz::generateProgram(p.seed).render(), diags);
    if (!fn) continue;
    PassManager::standardPipeline().run(*fn);
    const double ops = (double)opCount(*fn);
    // The nearest open target within tolerance takes the program.
    std::optional<std::size_t> best;
    for (std::size_t j = 0; j < kPrograms; ++j) {
      const double target = kTargetOps[j];
      if (slot[j] || std::fabs(ops - target) >
                         std::max(kMinToleranceOps, kTolerance * target))
        continue;
      if (!best ||
          std::fabs(ops - target) < std::fabs(ops - kTargetOps[*best]))
        best = j;
    }
    if (best) {
      slot[*best] = p;
      ++filled;
    }
  }
  // A stride coprime with kPrograms spreads the sizes evenly over any
  // stretch of the cycle, so a partly run cycle keeps the mix.
  std::vector<Program> out;
  for (std::size_t i = 0; i < kPrograms; ++i)
    out.push_back(*slot[(i * 13) % kPrograms]);
  return out;
}

fuzz::CampaignOptions campaignFor(const Program& p) {
  fuzz::CampaignOptions co;
  co.seedBase = p.seed;
  co.seeds = 1;
  co.jobs = 1;
  return co;  // default generator; diff: standard 24-point matrix, 4
              // trials, VM engine
}

/// Design points of one program that did not complete cleanly: points
/// never synthesized, points with a failure, and points short of their
/// co-simulation trials.
long failedPoints(long pointsRun, long simulations,
                  const std::vector<fuzz::PointFailure>& failures) {
  const fuzz::DiffOptions d;
  const long expected = (long)d.points.size();
  std::set<std::string> bad;
  for (const auto& f : failures) bad.insert(f.pointLabel());
  long failed = expected - std::min(pointsRun, expected) + (long)bad.size();
  if (simulations != pointsRun * d.trials) failed += 1;
  return std::min(failed, expected);
}

/// One untraced one-seed campaign, timed.
struct Timed {
  fuzz::CampaignResult result;
  double seconds = 0;
  std::vector<double> pointSeconds;
};

/// A design point's latency runs from the runner handing it to the
/// backend to the next point's hand-over (or the campaign's end):
/// synthesis, checks, STA and every co-simulation trial.
Timed timedCampaign(const Program& prog) {
  std::vector<double> marks;
  fuzz::CampaignOptions co = campaignFor(prog);
  co.diff.preBackend = [&marks](Function&, const fuzz::MatrixPoint&) {
    marks.push_back(nowSeconds());
  };
  FrontendCache::global().clear();
  Timed t;
  const double a = nowSeconds();
  t.result = fuzz::runCampaign(co);
  marks.push_back(nowSeconds());
  t.seconds = marks.back() - a;
  for (std::size_t k = 0; k + 1 < marks.size(); ++k)
    t.pointSeconds.push_back(marks[k + 1] - marks[k]);
  return t;
}

/// Verdict totals of one-seed campaigns, tallied after the window.
struct Tally {
  long points = 0, attempted = 0, failed = 0;
};

Tally tally(const std::vector<fuzz::CampaignResult>& results) {
  const long perProgram = (long)fuzz::DiffOptions{}.points.size();
  Tally t;
  for (const auto& r : results) {
    std::vector<fuzz::PointFailure> failures;
    for (const auto& fc : r.failures)
      failures.insert(failures.end(), fc.verdict.failures.begin(),
                      fc.verdict.failures.end());
    t.points += r.pointsRun;
    t.attempted += perProgram;
    t.failed += failedPoints(r.pointsRun, r.simulations, failures);
  }
  return t;
}

/// The untraced window: whole cycles over the program list until the
/// window closes (at least kMinCycles). The run reports, for each program
/// and each of its design points, the fastest time any cycle saw: CPU
/// taken by other tenants of a shared host only ever adds time, and it
/// comes and goes within a cycle.
struct Window {
  Tally tally;
  std::size_t cycles = 0;
  std::vector<double> programSeconds;             ///< per program
  std::vector<std::vector<double>> pointSeconds;  ///< per program, point
};

Window campaignWindow(const std::vector<Program>& progs, double seconds) {
  Window w;
  w.programSeconds.assign(progs.size(), std::numeric_limits<double>::max());
  w.pointSeconds.resize(progs.size());
  std::vector<fuzz::CampaignResult> results;
  const double t0 = nowSeconds();
  for (; w.cycles < kMinCycles || nowSeconds() - t0 < seconds; ++w.cycles) {
    for (std::size_t i = 0; i < progs.size(); ++i) {
      Timed t = timedCampaign(progs[i]);
      w.programSeconds[i] = std::min(w.programSeconds[i], t.seconds);
      std::vector<double>& best = w.pointSeconds[i];
      if (best.size() < t.pointSeconds.size())
        best.resize(t.pointSeconds.size(), std::numeric_limits<double>::max());
      for (std::size_t k = 0; k < t.pointSeconds.size(); ++k)
        best[k] = std::min(best[k], t.pointSeconds[k]);
      results.push_back(std::move(t.result));
    }
  }
  w.tally = tally(results);
  return w;
}

/// What the traced per-program pipeline observed.
struct TracedProgram {
  long pointsRun = 0, simulations = 0, failed = 0;
  std::size_t opsBefore = 0, opsAfter = 0;
  std::size_t langBytes = 0;  ///< source bytes through the frontend
  double replaySeconds = 0;
};

/// One program through the campaign's steps, called from here under
/// layer spans. Mirrors fuzz::runSource for the default DiffOptions.
TracedProgram tracedProgram(const Program& prog) {
  const fuzz::DiffOptions opts;
  TracedProgram t;
  std::string source;
  {
    TraceSpan s("fuzz.gen");
    source = fuzz::generateProgram(prog.seed).render();
  }

  std::vector<fuzz::PointFailure> failures;
  std::vector<std::map<std::string, std::uint64_t>> trialIns, goldenOuts;
  vm::EngineOptions eng = opts.engine;
  eng.seed ^= prog.seed * 0x9e3779b97f4a7c15ull;
  std::optional<Function> golden;
  {
    TraceSpan s("fuzz.golden");
    DiagEngine diags;
    {
      TraceSpan c("lang.compile");
      golden = compileBdl(source, diags, opts.top);
    }
    t.langBytes += source.size();
    if (!golden) {
      t.failed = (long)opts.points.size();
      return t;
    }
    std::vector<std::string> names;
    for (const Port& p : golden->ports())
      if (p.isInput) names.push_back(p.name);
    vm::BehavSim gi(*golden, eng);
    for (int k = 0; k < opts.trials; ++k) {
      auto in = fuzz::randomInputs(names, prog.seed, k);
      ExecResult r = gi.run(in, opts.maxBlockExecs);
      if (!r.finished) {
        t.failed = (long)opts.points.size();
        return t;
      }
      trialIns.push_back(std::move(in));
      goldenOuts.push_back(std::move(r.outputs));
    }
  }
  t.opsBefore = opCount(*golden);

  std::map<std::pair<OptLevel, bool>, std::shared_ptr<const Function>> fronts;
  auto frontendFor = [&](const fuzz::MatrixPoint& p) {
    const auto key = std::make_pair(p.opt, p.narrow);
    if (auto it = fronts.find(key); it != fronts.end()) return it->second;
    std::shared_ptr<const Function> fn;
    {
      TraceSpan s("core.frontend");
      const std::size_t misses = FrontendCache::global().misses();
      fn = FrontendCache::global().get(source, opts.top, p.opt);
      if (FrontendCache::global().misses() != misses) {
        t.langBytes += source.size();
        if (p.opt == OptLevel::Standard) t.opsAfter = opCount(*fn);
      }
    }
    if (p.narrow) {
      TraceSpan s("opt.narrow");
      auto narrowed = std::make_shared<Function>(fn->clone());
      PassManager pm;
      pm.add(createNarrowWidthsPass());
      pm.run(*narrowed);
      fn = std::move(narrowed);
    }
    fronts.emplace(key, fn);
    return fn;
  };

  for (const fuzz::MatrixPoint& p : opts.points) {
    TraceSpan point("bench.point", p.label());
    auto fail = [&](const std::string& kind, const std::string& detail) {
      failures.push_back({p, kind, detail, -1});
    };
    try {
      const SynthesisOptions so = p.toOptions();
      std::shared_ptr<const Function> base = frontendFor(p);
      SynthesisResult r = [&] {
        TraceSpan s("core.synth");
        Synthesizer synth(so);
        Function work = base->clone();
        return synth.synthesizeOptimized(work);
      }();
      ++t.pointsRun;
      {
        const double a = nowSeconds();
        if (!replayAllocation(r.design, p.reg, p.fu, so.latencies))
          fail("replay", "allocation replay disagrees with the synthesizer");
        t.replaySeconds += nowSeconds() - a;
      }

      // STA oracle, as in fuzz::runSource.
      const sta::StaResult sr = sta::runSta(r.design);
      if (std::fabs(sr.cycleTime - sr.estimatedCycleTime) > 1e-6 ||
          sr.worstSlack < -1e-9 || sr.combLoop) {
        fail("sta", "timing oracle failed");
        continue;
      }

      // checkDesign with the timing lint off, one analyzer per span.
      CheckReport rep;
      const ResourceLimits limits =
          p.resourceLimited() ? ResourceLimits::universalSet(p.fus)
                              : ResourceLimits::unlimited();
      const RtlDesign& d = r.design;
      {
        TraceSpan s("check.semantics");
        checkSemantics(d.fn, rep);
      }
      {
        TraceSpan s("check.schedule");
        checkSchedule(d.fn, d.sched, limits, so.latencies, rep);
      }
      {
        TraceSpan s("check.binding");
        checkBinding(d.fn, d.sched, d.lifetimes, d.regs, d.binding, d.ic,
                     d.lib, so.latencies, rep);
      }
      {
        TraceSpan s("check.controller");
        checkController(d.fn, d.sched, d.ctrl, d.ic, d.binding,
                        so.latencies, rep);
      }
      if (so.latencies.isUnit()) {
        std::string verilog;
        {
          TraceSpan s("rtl.verilog");
          verilog = emitVerilog(d);
        }
        TraceSpan s("check.lint");
        lintVerilog(verilog, rep);
      }
      if (!rep.clean()) {
        fail("check", rep.firstError());
        continue;
      }

      vm::RtlSim sim(r.design, eng);
      for (int k = 0; k < opts.trials; ++k) {
        auto res = sim.run(trialIns[(std::size_t)k], opts.maxCycles);
        ++t.simulations;
        if (!res.finished || res.outputs != goldenOuts[(std::size_t)k])
          fail("mismatch", "co-simulation disagrees with the golden run");
      }
    } catch (const std::exception& e) {
      fail("error", e.what());
    }
  }
  t.failed = failedPoints(t.pointsRun, t.simulations, failures);
  return t;
}

}  // namespace

RunResult runFuzz(const RunOptions& o) {
  RunResult r;
  std::vector<Program> progs;
  const double setup = medianSetupSeconds(3, [&] {
    progs = programList(o.seed);
    FrontendCache::global().clear();
    // Warm-up: one mid-sized program through the whole matrix.
    (void)fuzz::runCampaign(campaignFor(progs[kPrograms / 2]));
    FrontendCache::global().clear();
  });

  if (!o.trace) {
    const Window w = campaignWindow(progs, o.seconds);
    r.attempted = w.tally.attempted;
    r.failed = w.tally.failed;
    double seconds = 0;
    for (double x : w.programSeconds) seconds += x;
    std::vector<double> lat;
    for (const auto& points : w.pointSeconds)
      for (double x : points) lat.push_back(x * 1e3);
    r.metrics["setup_s"] = setup;
    r.metrics["throughput_per_s"] = (double)lat.size() / seconds;
    r.metrics["lat_p50_ms"] = percentile(lat, 0.5);
    r.metrics["lat_p90_ms"] = percentile(lat, 0.9);
    r.metrics["peak_rss_mb"] = selfPeakRssMb();
    r.notes.push_back("cycles=" + std::to_string(w.cycles) +
                      " points=" + std::to_string(w.tally.points) +
                      " p90_samples_beyond=" +
                      std::to_string(samplesBeyond(lat.size(), 0.9)));
    return r;
  }

  // Traced: each program runs twice, alternately — as an untraced
  // one-seed campaign (the overhead baseline) and through the traced
  // pipeline — so drift and warm-up fall on both sides alike.
  std::vector<TracedProgram> traced;
  std::vector<double> tracedSeconds;
  std::vector<fuzz::CampaignResult> baseResults;
  double baseSeconds = 0;
  std::size_t hits = 0, misses = 0;
  auto& tracer = obs::Tracer::global();
  startTracing();
  tracer.disable();
  const double t0 = nowSeconds();
  for (std::size_t i = 0; nowSeconds() - t0 < o.seconds; ++i) {
    const Program& prog = progs[i % progs.size()];
    Timed t = timedCampaign(prog);
    baseSeconds += t.seconds;
    baseResults.push_back(std::move(t.result));

    FrontendCache::global().clear();
    const std::size_t h0 = FrontendCache::global().hits();
    const std::size_t m0 = FrontendCache::global().misses();
    tracer.enable();
    const double a = nowSeconds();
    TracedProgram tp;
    {
      TraceSpan span("bench.program");
      tp = tracedProgram(prog);
    }
    tracedSeconds.push_back(nowSeconds() - a - tp.replaySeconds);
    tracer.disable();
    hits += FrontendCache::global().hits() - h0;
    misses += FrontendCache::global().misses() - m0;
    traced.push_back(tp);
  }
  const double t1 = nowSeconds();
  const std::vector<Span> spans = stopTracing();
  const Tally base = tally(baseResults);

  const LayerSplit main = splitLayers(spans, t0, t1);
  const LayerSplit replay = splitLayers(spans, t0, t1, true);
  long points = 0, sims = 0;
  std::size_t before = 0, after = 0, bytes = 0;
  for (const TracedProgram& tp : traced) {
    points += tp.pointsRun;
    sims += tp.simulations;
    before += tp.opsBefore;
    after += tp.opsAfter;
    bytes += tp.langBytes;
    r.failed += tp.failed;
    r.attempted += (long)fuzz::DiffOptions{}.points.size();
  }
  r.attempted += base.attempted;
  r.failed += base.failed;
  double wall = 0;
  for (double x : tracedSeconds) wall += x;
  fillLayerMetrics(r, main, replay, wall);
  auto& m = r.metrics;
  m["lang.bytes_per_s"] = m["lang.s"] > 0 ? (double)bytes / m["lang.s"] : 0;
  m["opt.ops_removed_share"] =
      before > 0 ? 1.0 - (double)after / (double)before : 0;
  m["core.frontend_cache.hit_ratio"] =
      hits + misses > 0 ? (double)hits / (double)(hits + misses) : 0;
  const auto staRuns = main.count.find("sta.run");
  m["sta.runs_per_point"] =
      points > 0 && staRuns != main.count.end()
          ? (double)staRuns->second / (double)points
          : 0;
  m["trace_overhead_share"] = baseSeconds > 0 ? wall / baseSeconds - 1 : 0;
  m["fail_share"] =
      r.attempted > 0 ? (double)r.failed / (double)r.attempted : 0;
  r.notes.push_back("traced programs=" + std::to_string(traced.size()) +
                    " points=" + std::to_string(points) +
                    " simulations=" + std::to_string(sims));
  return r;
}

}  // namespace perfbench
