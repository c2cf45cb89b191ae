// dse-ladder: design-space exploration on growing designs, where the
// scheduler and the thread pool dominate. Every design shares one frontend
// compile per round (the cache is cleared at the start of each round), and
// no clique allocation or co-simulation runs, so clique and VM changes
// must predict no change here.
#include <algorithm>
#include <functional>
#include <limits>
#include <thread>

#include "alloc/lifetime.h"
#include "core/designs.h"
#include "core/dse.h"
#include "core/frontend_cache.h"
#include "gen.h"
#include "lang/frontend.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mphls;
using obs::TraceSpan;

constexpr int kMaxFus = 8;         ///< resource sweep 1..8 universal FUs
constexpr int kExtraSlack = 3;     ///< time sweep: critical .. critical+3
constexpr int kTimeSweepMaxN = 200;
constexpr int kChippeTargetFus = 4;  ///< Chippe aims at the 4-FU latency
/// The clique replay climbs the ladder while the next size is projected
/// to stay under about a second (clique FU allocation on wide designs grows
/// about 12x per doubling).
constexpr double kCliqueBudgetSeconds = 1.0;
constexpr double kCliqueGrowthPerDoubling = 12;
/// Set-ups per run (each about 15 ms); the run reports their median.
constexpr int kSetups = 9;

struct Design {
  std::string name;
  std::string source;
  bool ladder = false;  ///< generated (false: builtin)
  LadderShape shape = LadderShape::Chain;
  int statements = 0;
};

std::vector<Design> designList(std::uint64_t seed) {
  std::vector<Design> out;
  for (const auto& b : designs::all())
    out.push_back({b.name, b.source, false, LadderShape::Chain, 0});
  for (LadderShape shape : {LadderShape::Chain, LadderShape::Wide})
    for (int n : {50, 100, 200, 400}) {
      LadderDesign d = ladderDesign(
          shape, n, subSeed(seed, 2000 + (std::uint64_t)n * 2 +
                                      (shape == LadderShape::Wide)));
      out.push_back({d.name, std::move(d.source), true, shape, n});
    }
  return out;
}

int workers() {
  const int hw = (int)std::thread::hardware_concurrency();
  return std::clamp(hw, 1, 4);
}

/// One exploration's deterministic output: renderPoints plus every
/// captured Verilog text.
struct Exploration {
  std::string design, kind;
  std::size_t points = 0;
  std::size_t hash = 0;
  std::string text;  ///< kept for the first round only
  double seconds = 0;  ///< wall time of the whole exploration
  std::vector<double> pointSeconds;
};

Exploration record(const Design& d, const char* kind,
                   const std::vector<DsePoint>& pts, bool keepText,
                   double seconds) {
  Exploration e;
  e.seconds = seconds;
  e.design = d.name;
  e.kind = kind;
  e.points = pts.size();
  std::string text = renderPoints(pts);
  for (const DsePoint& p : pts) {
    text += p.verilog;
    e.pointSeconds.push_back(p.wallSeconds);
  }
  e.hash = std::hash<std::string>{}(text);
  if (keepText) e.text = std::move(text);
  return e;
}

/// One round: every design through the three explorations.
std::vector<Exploration> runRound(const std::vector<Design>& designs,
                                  int jobs, bool keepText) {
  FrontendCache::global().clear();
  SynthesisOptions base;
  base.jobs = jobs;
  base.dseCaptureVerilog = true;
  std::vector<Exploration> out;
  for (const Design& d : designs) {
    TraceSpan span("bench.design", d.name);
    auto explore = [&](const char* kind,
                       const std::function<std::vector<DsePoint>()>& f) {
      TraceSpan s("bench.explore", kind);
      const double a = nowSeconds();
      std::vector<DsePoint> pts = f();
      out.push_back(record(d, kind, pts, keepText, nowSeconds() - a));
      return pts;
    };
    const std::vector<DsePoint> rs = explore("resource", [&] {
      return exploreResourceSweep(d.source, kMaxFus, base);
    });
    if (!d.ladder || d.statements <= kTimeSweepMaxN)
      (void)explore("time", [&] {
        return exploreTimeSweep(d.source, kExtraSlack, base);
      });
    const int target = rs[kChippeTargetFus - 1].latencySteps;
    (void)explore("chippe", [&] {
      return chippeIterate(d.source, target, kMaxFus, base);
    });
  }
  return out;
}

struct Rounds {
  std::vector<std::vector<Exploration>> rounds;
  std::vector<double> roundSeconds;
};

Rounds runRounds(const std::vector<Design>& designs, double seconds) {
  Rounds r;
  const double t0 = nowSeconds();
  while (r.rounds.empty() || nowSeconds() - t0 < seconds) {
    const double a = nowSeconds();
    r.rounds.push_back(runRound(designs, workers(), r.rounds.empty()));
    r.roundSeconds.push_back(nowSeconds() - a);
  }
  return r;
}

/// After the window: count the points of every exploration whose output
/// differs from `ref`, a replay of one round at jobs = 1.
void checkRounds(const std::vector<Exploration>& ref, const Rounds& r,
                 RunResult& out) {
  for (std::size_t k = 0; k < r.rounds.size(); ++k) {
    const auto& round = r.rounds[k];
    for (std::size_t i = 0; i < round.size(); ++i) {
      const Exploration& e = round[i];
      out.attempted += (long)e.points;
      const bool same =
          i < ref.size() && e.design == ref[i].design &&
          e.kind == ref[i].kind && e.hash == ref[i].hash &&
          (k > 0 || e.text == ref[i].text);
      if (!same) {
        out.failed += (long)e.points;
        out.notes.push_back("mismatch: " + e.design + " " + e.kind +
                            " round " + std::to_string(k));
      }
    }
    if (round.size() != ref.size()) out.failed += 1;
  }
}

long pointsOf(const Rounds& r) {
  long n = 0;
  for (const auto& round : r.rounds)
    for (const auto& e : round) n += (long)e.points;
  return n;
}

/// Self seconds of `layer` per design point within each resource-sweep
/// exploration of the wide ladder designs, against the design's op count.
/// Explorations run one after another, so a span belongs to the
/// exploration whose window contains its start, whatever its thread.
std::vector<std::pair<double, double>> growth(
    const std::vector<Span>& spans, const std::vector<Design>& designs,
    const std::map<std::string, std::size_t>& ops, const char* layer) {
  struct Window {
    double start, end;
    std::string design;
  };
  std::vector<Window> windows;
  for (const Span& e : spans)
    if (e.name == "bench.explore" && e.arg == "resource" && e.parent >= 0)
      windows.push_back({e.start, e.end, spans[(std::size_t)e.parent].arg});
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
  std::map<std::string, double> seconds, points;
  for (const Span& s : spans) {
    if (s.replay) continue;
    auto it = std::upper_bound(
        windows.begin(), windows.end(), s.start,
        [](double t, const Window& w) { return t < w.start; });
    if (it == windows.begin()) continue;
    --it;
    if (s.start >= it->end) continue;
    if (layerOf(s.name) == layer) seconds[it->design] += s.self;
    if (s.name == "dse.point") points[it->design] += 1;
  }
  std::vector<std::pair<double, double>> xy;
  for (const Design& d : designs)
    if (d.ladder && d.shape == LadderShape::Wide && points[d.name] > 0)
      xy.emplace_back((double)ops.at(d.name), seconds[d.name] / points[d.name]);
  return xy;
}

}  // namespace

RunResult runDse(const RunOptions& o) {
  RunResult r;
  std::vector<Design> designs;
  const double setup = medianSetupSeconds(kSetups, [&] {
    designs = designList(o.seed);
    FrontendCache::global().clear();
    SynthesisOptions warm;
    warm.jobs = workers();
    for (const auto& b : designs::all())
      (void)exploreResourceSweep(b.source, kMaxFus, warm);
    FrontendCache::global().clear();
  });

  if (!o.trace) {
    const Rounds w = runRounds(designs, o.seconds);
    const long points = pointsOf(w);
    // Every round does identical work. For each exploration and each of
    // its design points the run takes the fastest time any round saw: CPU
    // taken by other tenants of a shared host only ever adds time, and it
    // comes and goes within a round.
    const std::vector<Exploration>& first = w.rounds.front();
    std::vector<double> best(first.size(), std::numeric_limits<double>::max());
    std::vector<std::vector<double>> bestPoint(first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
      bestPoint[i].assign(first[i].pointSeconds.size(),
                          std::numeric_limits<double>::max());
    for (const auto& round : w.rounds)
      for (std::size_t i = 0; i < std::min(round.size(), first.size()); ++i) {
        best[i] = std::min(best[i], round[i].seconds);
        const auto& pts = round[i].pointSeconds;
        for (std::size_t j = 0; j < std::min(pts.size(), bestPoint[i].size());
             ++j)
          bestPoint[i][j] = std::min(bestPoint[i][j], pts[j]);
      }
    double seconds = 0;
    std::vector<double> lat;
    for (std::size_t i = 0; i < first.size(); ++i) {
      seconds += best[i];
      for (double x : bestPoint[i]) lat.push_back(x * 1e3);
    }
    r.metrics["setup_s"] = setup;
    r.metrics["throughput_per_s"] = (double)lat.size() / seconds;
    r.metrics["lat_p50_ms"] = percentile(lat, 0.5);
    r.metrics["lat_p90_ms"] = percentile(lat, 0.9);
    r.metrics["peak_rss_mb"] = selfPeakRssMb();
    checkRounds(runRound(designs, 1, true), w, r);
    r.notes.push_back("rounds=" + std::to_string(w.rounds.size()) +
                      " points=" + std::to_string(points) +
                      " workers=" + std::to_string(workers()));
    return r;
  }

  // Traced: untraced and traced rounds alternate (the untraced ones are
  // the overhead baseline), then the allocation and clique replays.
  Rounds base, traced;
  std::size_t hits = 0, misses = 0;
  auto& tracer = obs::Tracer::global();
  startTracing();
  tracer.disable();
  const double t0 = nowSeconds();
  while (traced.rounds.empty() || nowSeconds() - t0 < o.seconds) {
    double a = nowSeconds();
    base.rounds.push_back(runRound(designs, workers(), base.rounds.empty()));
    base.roundSeconds.push_back(nowSeconds() - a);

    const std::size_t h0 = FrontendCache::global().hits();
    const std::size_t m0 = FrontendCache::global().misses();
    tracer.enable();
    a = nowSeconds();
    traced.rounds.push_back(
        runRound(designs, workers(), traced.rounds.empty()));
    traced.roundSeconds.push_back(nowSeconds() - a);
    tracer.disable();
    hits += FrontendCache::global().hits() - h0;
    misses += FrontendCache::global().misses() - m0;
  }
  const double t1 = nowSeconds();
  tracer.enable();

  // Replays on one scheduled design per ladder step (4 universal FUs).
  std::map<std::string, std::size_t> opsBefore, opsAfter;
  bool replayOk = true;
  std::map<LadderShape, bool> cliqueOpen = {{LadderShape::Chain, true},
                                            {LadderShape::Wide, true}};
  std::vector<std::pair<double, double>> cliqueXy;
  for (const Design& d : designs) {
    auto fn = FrontendCache::global().get(d.source, "", OptLevel::Standard);
    opsAfter[d.name] = opCount(*fn);
    opsBefore[d.name] = opCount(compileBdlOrThrow(d.source));
    SynthesisOptions so;
    so.resources = ResourceLimits::universalSet(kChippeTargetFus);
    const SynthesisResult sr = Synthesizer(so).synthesizeOptimized(*fn);
    replayOk &= replayAllocation(sr.design, so.regMethod, so.fuMethod,
                                 so.latencies);
    if (!d.ladder || !cliqueOpen[d.shape]) continue;
    const RtlDesign& rd = sr.design;
    const double a = nowSeconds();
    {
      TraceSpan replay("replay", d.name);
      const HwLibrary lib = HwLibrary::defaultLibrary();
      TraceSpan s("alloc.clique");
      const LifetimeInfo lt = computeLifetimes(rd.fn, rd.sched, so.latencies);
      const RegAssignment regs =
          allocateRegisters(lt, RegAllocMethod::Clique);
      (void)allocateFus(rd.fn, rd.sched, lt, regs, lib, FuAllocMethod::Clique,
                        so.latencies);
    }
    const double cliqueSeconds = nowSeconds() - a;
    r.notes.push_back("clique replay " + d.name + ": " +
                      std::to_string(cliqueSeconds) + " s");
    if (d.shape == LadderShape::Wide)
      cliqueXy.emplace_back((double)opsAfter[d.name], cliqueSeconds);
    if (cliqueSeconds * kCliqueGrowthPerDoubling > kCliqueBudgetSeconds)
      cliqueOpen[d.shape] = false;
  }
  const std::vector<Span> spans = stopTracing();

  const LayerSplit main = splitLayers(spans, t0, t1);
  const LayerSplit replay = splitLayers(spans, t1, nowSeconds(), true);
  double wall = 0;
  for (double x : traced.roundSeconds) wall += x;
  fillLayerMetrics(r, main, replay, wall);
  auto& m = r.metrics;
  std::size_t bytes = 0, before = 0, after = 0;
  for (const Design& d : designs) {
    bytes += d.source.size() * traced.rounds.size();
    before += opsBefore[d.name];
    after += opsAfter[d.name];
  }
  m["lang.bytes_per_s"] = m["lang.s"] > 0 ? (double)bytes / m["lang.s"] : 0;
  m["opt.ops_removed_share"] =
      before > 0 ? 1.0 - (double)after / (double)before : 0;
  m["core.frontend_cache.hit_ratio"] =
      hits + misses > 0 ? (double)hits / (double)(hits + misses) : 0;
  const auto incl = [&](const char* name) {
    auto it = main.inclusive.find(name);
    return it == main.inclusive.end() ? 0.0 : it->second;
  };
  const auto count = [&](const char* name) {
    auto it = main.count.find(name);
    return it == main.count.end() ? 0.0 : (double)it->second;
  };
  const double dsePoints = count("dse.point");
  m["core.dse.point_s"] = dsePoints > 0 ? incl("dse.point") / dsePoints : 0;
  m["common.pool.busy_share"] = incl("dse.point") / (wall * workers());
  m["sta.runs_per_point"] = dsePoints > 0 ? count("sta.run") / dsePoints : 0;
  m["sched.exp"] = logLogSlope(growth(spans, designs, opsAfter, "sched"));
  m["alloc.exp"] = logLogSlope(growth(spans, designs, opsAfter, "alloc"));
  m["check.exp"] = logLogSlope(growth(spans, designs, opsAfter, "check"));
  m["alloc.clique.exp"] = logLogSlope(cliqueXy);
  double baseWall = 0;
  for (double x : base.roundSeconds) baseWall += x;
  m["trace_overhead_share"] = baseWall > 0 ? wall / baseWall - 1 : 0;

  const std::vector<Exploration> ref = runRound(designs, 1, true);
  checkRounds(ref, base, r);
  checkRounds(ref, traced, r);
  if (!replayOk) {
    r.failed += 1;
    r.notes.push_back("allocation replay disagrees with the synthesizer");
  }
  m["fail_share"] =
      r.attempted > 0 ? (double)r.failed / (double)r.attempted : 0;
  r.notes.push_back("traced rounds=" + std::to_string(traced.rounds.size()) +
                    " clique_sizes=" + std::to_string(cliqueXy.size()));
  return r;
}

}  // namespace perfbench
