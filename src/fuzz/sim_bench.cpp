#include "fuzz/sim_bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "common/bench_report.h"
#include "common/json_reader.h"
#include "core/designs.h"
#include "core/options.h"
#include "core/synthesizer.h"
#include "fuzz/bdl_gen.h"
#include "fuzz/diff_runner.h"
#include "ir/interp.h"
#include "lang/frontend.h"
#include "rtl/rtlsim.h"
#include "vm/sim_engine.h"

namespace mphls::fuzz {

namespace {

/// Grow `batch` (by doubling) until one pass of `once` x batch takes at
/// least ~20ms, then return the best-of-`repeats` seconds for that batch.
/// Short passes would otherwise be all clock noise — sub-microsecond VM
/// runs need thousands of iterations per timing sample.
double calibratedBest(int repeats, long& batch,
                      const std::function<void()>& once) {
  for (;;) {
    WallTimer t;
    for (long i = 0; i < batch; ++i) once();
    if (t.seconds() >= 0.02 || batch >= (1L << 22)) break;
    batch *= 2;
  }
  return timeBest(repeats, [&] {
    for (long i = 0; i < batch; ++i) once();
  });
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double logSum = 0;
  for (double x : xs) logSum += std::log(x);
  return std::exp(logSum / (double)xs.size());
}

}  // namespace

int runSimBenchSuite(const SimBenchOptions& options) {
  WallTimer total;
  json::Node rep = json::Node::object();
  rep["benchmark"] = "sim_throughput";
  rep["repeats"] = options.repeats;

  // Pure-VM engine for the speed measurements: cross-checking off, so the
  // numbers are the VM alone, not VM + sampled interpreter re-runs.
  vm::EngineOptions pureVm;
  pureVm.crossCheck = 0.0;

  std::vector<double> rtlSpeedups, behavSpeedups;
  json::Node designsJson = json::Node::array();
  for (const auto& d : designs::all()) {
    json::Node entry = json::Node::object();
    entry["name"] = d.name;

    // Behavioral: whole-program runs/sec.
    Function fn = compileBdlOrThrow(d.source);
    Interpreter interp(fn);
    long bi = 1;
    double ti = calibratedBest(options.repeats, bi,
                               [&] { (void)interp.run(d.sampleInputs); });
    vm::BehavSim behav(fn, pureVm);
    long bv = 1;
    double tv = calibratedBest(options.repeats, bv,
                               [&] { (void)behav.run(d.sampleInputs); });
    const double behavInterpRate = (double)bi / ti;
    const double behavVmRate = (double)bv / tv;
    json::Node bj = json::Node::object();
    bj["interp_runs_per_sec"] = behavInterpRate;
    bj["vm_runs_per_sec"] = behavVmRate;
    bj["speedup"] = behavVmRate / behavInterpRate;
    entry["behavioral"] = std::move(bj);
    behavSpeedups.push_back(behavVmRate / behavInterpRate);

    // RTL: cycles/sec (cycles-per-run is fixed for fixed inputs, so the
    // rate is just run throughput scaled by the design's cycle count).
    Synthesizer synth(options::defaults());
    SynthesisResult r = synth.synthesizeSource(d.source);
    RtlSimulator rtlInterp(r.design);
    const long cyclesPerRun = rtlInterp.run(d.sampleInputs).cycles;
    long ri = 1;
    double tri = calibratedBest(options.repeats, ri,
                                [&] { (void)rtlInterp.run(d.sampleInputs); });
    WallTimer compileTimer;
    vm::RtlSim rtlVm(r.design, pureVm);
    const double compileSeconds = compileTimer.seconds();
    long rv = 1;
    double trv = calibratedBest(options.repeats, rv,
                                [&] { (void)rtlVm.run(d.sampleInputs); });
    const double rtlInterpRate = (double)ri * (double)cyclesPerRun / tri;
    const double rtlVmRate = (double)rv * (double)cyclesPerRun / trv;
    json::Node rj = json::Node::object();
    rj["cycles_per_run"] = cyclesPerRun;
    rj["interp_cycles_per_sec"] = rtlInterpRate;
    rj["vm_cycles_per_sec"] = rtlVmRate;
    rj["speedup"] = rtlVmRate / rtlInterpRate;
    rj["vm_compile_seconds"] = compileSeconds;
    entry["rtl"] = std::move(rj);
    rtlSpeedups.push_back(rtlVmRate / rtlInterpRate);
    designsJson.push(std::move(entry));

    if (!options.quiet)
      std::printf(
          "sim bench %-8s behav %10.0f -> %10.0f runs/s (%5.1fx)   "
          "rtl %10.0f -> %11.0f cycles/s (%5.1fx)\n",
          d.name, behavInterpRate, behavVmRate,
          behavVmRate / behavInterpRate, rtlInterpRate, rtlVmRate,
          rtlVmRate / rtlInterpRate);
  }
  rep["designs"] = std::move(designsJson);

  double minRtl = rtlSpeedups.front(), minBehav = behavSpeedups.front();
  for (double s : rtlSpeedups) minRtl = std::min(minRtl, s);
  for (double s : behavSpeedups) minBehav = std::min(minBehav, s);
  rep["behav_speedup_geomean"] = geomean(behavSpeedups);
  rep["behav_speedup_min"] = minBehav;
  rep["rtl_speedup_geomean"] = geomean(rtlSpeedups);
  rep["rtl_speedup_min"] = minRtl;

  // End-to-end fuzz batch: full runSource (synthesis + checking + co-sim)
  // over fixed seeds, once per engine. Single pass — a pass takes seconds,
  // so best-of-N would mostly re-measure the synthesis pipeline; the
  // number is honest wall-clock fuzz throughput, synthesis cost included.
  const long seeds = options.fuzzSeeds;
  DiffOptions diff;
  diff.points = FuzzMatrix::quick().points();
  auto fuzzPass = [&](vm::EngineKind kind) {
    diff.engine.kind = kind;
    diff.engine.crossCheck = 0.0;
    long sims = 0;
    WallTimer t;
    for (long s = 1; s <= seeds; ++s) {
      GenProgram prog = generateProgram((std::uint64_t)s);
      sims += runSource(prog.render(), (std::uint64_t)s, diff).simulations;
    }
    return std::make_pair(t.seconds(), sims);
  };
  auto [interpSecs, interpSims] = fuzzPass(vm::EngineKind::Interp);
  auto [vmSecs, vmSims] = fuzzPass(vm::EngineKind::Vm);
  json::Node fj = json::Node::object();
  fj["seeds"] = seeds;
  fj["matrix"] = "quick";
  fj["passes"] = 1;
  fj["cosims"] = interpSims;
  fj["interp_seconds"] = interpSecs;
  fj["vm_seconds"] = vmSecs;
  fj["interp_cosims_per_sec"] =
      interpSecs > 0 ? (double)interpSims / interpSecs : 0.0;
  fj["vm_cosims_per_sec"] = vmSecs > 0 ? (double)vmSims / vmSecs : 0.0;
  fj["speedup"] = vmSecs > 0 ? interpSecs / vmSecs : 0.0;
  rep["fuzz"] = std::move(fj);
  if (!options.quiet)
    std::printf(
        "sim bench fuzz     %ld seeds (quick matrix): %.2fs -> %.2fs "
        "(%.1fx end-to-end)\n",
        seeds, interpSecs, vmSecs, vmSecs > 0 ? interpSecs / vmSecs : 0.0);

  rep["wall_seconds"] = total.seconds();

  const std::string sep =
      options.outDir.empty() || options.outDir.back() == '/' ? "" : "/";
  const std::string path = options.outDir + sep + "BENCH_sim.json";
  if (!json::writeFile(path, rep)) {
    std::fprintf(stderr, "mphls: cannot write %s\n", path.c_str());
    return 1;
  }
  if (!options.quiet) std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace mphls::fuzz
