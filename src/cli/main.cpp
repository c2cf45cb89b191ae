// mphls — command-line driver for the high-level synthesis system.
//
// `mphls [options] design.bdl` (or `mphls synth ...`) runs the whole flow
// and prints the synthesis summary. The flags of every subcommand are
// tables in cli/args.cpp (usage() prints them); below is why each exists.
//
// The `lint` subcommand synthesizes the design and prints the full static
// verification report (schedule legality, binding consistency, controller
// completeness, Verilog netlist lint) instead of the synthesis summary;
// it exits 1 if any error-severity finding is reported. `--format json`
// switches the report to one machine-readable JSON object
// ({"file","diagnostics":[{"severity","code","where","message"}],...}).
//
// The `prove` subcommand runs the symbolic equivalence engine (src/sec/,
// DESIGN.md §11): the synthesized FSM/datapath is proved equivalent to the
// behavioral CDFG block by block, with every obligation discharged by
// bit-blasting to the built-in CDCL SAT solver. `--prove-passes`
// additionally validates each optimization pass application (translation
// validation), pinpointing the first non-equivalence-preserving pass.
// `--inject mul|sched|bind` flips the gate into its self-test: a known
// miscompile is injected and the command exits 0 only when the proof
// *fails* on every design it applies to. `--builtins` proves every
// built-in design (the CI gate). The plain synthesis path accepts
// `--prove` to run the same proof as a pipeline stage.
//
// The `sta` subcommand runs the path-level static timing analysis engine
// (src/sta/, DESIGN.md §13) on the synthesized design: per-state timing
// graphs with arrival/required/slack against a target clock (--clock,
// default: the estimated cycle time), the K worst named paths (--paths),
// state-aware false-path pruning versus the structural analysis, and the
// timing-closure lint (timing.* check ids). Exits 1 on any error-severity
// finding — negative slack, STA-vs-estimator divergence, comb loops.
// `--builtins` analyzes every built-in design (the CI gate); `--format
// json` emits the machine-readable report.
//
// The `analyze` subcommand runs the abstract-interpretation dataflow engine
// (value ranges + known bits) on the compiled behavior and prints the
// per-value facts plus the semantic lint report (analysis.* check ids); it
// exits 1 if any error-severity finding is reported. `--dot-facts FILE`
// additionally writes the CFG and per-block DFGs with each node annotated
// by its fact; `--builtins` analyzes every built-in design instead of a
// file (the CI gate). With an explicit `--opt` (and optionally `--narrow`)
// the analysis runs on the post-pipeline IR instead of the frontend
// output — the facts the width-narrowing pass actually consumes.
//
// The `profile` subcommand synthesizes the design, simulates it under the
// waveform/coverage recorder, and prints a stage/pass time + counter +
// FSM-coverage table. `--trace FILE` (Chrome trace_event JSON for
// Perfetto), `--vcd FILE` (GTKWave waveform) and `--stats FILE` (metrics
// registry JSON) work on the synth, profile and fuzz paths; see DESIGN.md
// §10.
//
// The `fuzz` subcommand runs the differential co-simulation fuzzer
// (src/fuzz/): deterministic random BDL programs are synthesized across a
// scheduler × allocator × encoding × narrow matrix, every point is gated
// through the stage-exit checks, the STA oracle and the netlist lint, and
// the RTL is co-simulated against the behavioral interpreter. Failures are saved (raw + delta-debug-minimized with
// --reduce) under the corpus directory; --replay DIR re-runs saved corpus
// entries as a regression gate. Exits 1 on any failure.
//
// The `serve` subcommand runs the synthesis daemon (src/serve/, DESIGN.md
// §14) until SIGTERM/SIGINT: the same command layer (core/commands.h) as
// the text and JSON reports here, behind HTTP. `loadgen` replays a
// deterministic request mix against it.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "analysis/dataflow.h"
#include "check/check.h"
#include "cli/args.h"
#include "common/json_reader.h"
#include "common/thread_pool.h"
#include "common/wall_timer.h"
#include "core/commands.h"
#include "core/designs.h"
#include "core/dse.h"
#include "fuzz/diff_runner.h"
#include "ir/dot.h"
#include "lang/frontend.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/rtlsim.h"
#include "rtl/sim_trace.h"
#include "rtl/verilog.h"
#include "sched/schedule.h"
#include "sta/sta.h"
#include "vm/sim_engine.h"

using namespace mphls;
using cli::DesignArgs;
using cli::DesignCmd;

namespace {

int fail(const std::string& msg) {
  std::cerr << "mphls: " << msg << "\n";
  return 1;
}

/// Turn the tracer on (with a named main-thread track) when --trace was
/// given; instrumentation stays on the null-sink fast path otherwise.
void enableTracing(const std::string& traceOut) {
  if (traceOut.empty()) return;
  obs::Tracer::global().setThreadName("main");
  obs::Tracer::global().enable();
}

/// Configure the structured logger from --log-file/--log-level (already
/// validated by the flag parser). A file with no explicit level defaults
/// to info; no file routes to stderr. Returns false (after reporting)
/// when the file cannot be opened. With neither flag the logger stays on
/// its null-sink fast path.
bool applyLogging(const std::string& logFile, const std::string& logLevel) {
  if (logFile.empty() && logLevel.empty()) return true;
  auto& lg = obs::Logger::global();
  if (!logFile.empty() && !lg.openFile(logFile)) {
    fail("cannot open log file " + logFile);
    return false;
  }
  lg.setLevel(logLevel.empty() ? obs::LogLevel::Info
                               : obs::parseLogLevel(logLevel));
  return true;
}

/// Write the --trace / --stats artifacts at command exit.
int writeObsOutputs(const std::string& traceOut, const std::string& statsOut,
                    bool quiet) {
  if (!traceOut.empty()) {
    if (!obs::Tracer::global().writeChromeTrace(traceOut))
      return fail("cannot write " + traceOut);
    if (!quiet) std::cout << "wrote trace to " << traceOut << "\n";
  }
  if (!statsOut.empty()) {
    if (!obs::MetricsRegistry::global().writeJson(statsOut))
      return fail("cannot write " + statsOut);
    if (!quiet) std::cout << "wrote metrics to " << statsOut << "\n";
  }
  return 0;
}

/// One recorded RTL simulation: waveform (written to `vcdOut` when
/// non-empty), FSM coverage and FU utilization, published as sim.* gauges.
struct RecordedSim {
  RtlExecResult res;
  FsmCoverage cov;
  std::vector<double> util;
  long cycles = 0;
};

std::optional<RecordedSim> recordSimulation(
    const RtlDesign& d, const std::map<std::string, std::uint64_t>& inputs,
    const std::string& vcdOut, bool quiet) {
  SimTraceRecorder rec(d);
  rec.begin(inputs);
  vm::RtlSim sim(d);  // bytecode VM with default interpreter cross-checking
  RecordedSim out;
  WallTimer simTimer;
  {
    obs::TraceSpan span("sim.rtl", d.fn.name());
    out.res = sim.run(inputs, 1000000, rec.observer());
  }
  const double simSeconds = simTimer.seconds();
  rec.finish();
  out.cov = rec.coverage();
  out.util = rec.fuUtilization();
  out.cycles = rec.cycles();

  double utilMean = 0;
  for (double u : out.util) utilMean += u;
  if (!out.util.empty()) utilMean /= (double)out.util.size();
  auto& mr = obs::MetricsRegistry::global();
  mr.gauge("sim.cycles").set((double)out.res.cycles);
  mr.gauge("sim.cycles_per_sec")
      .set(simSeconds > 0 ? (double)out.res.cycles / simSeconds : 0.0);
  mr.gauge("sim.finished").set(out.res.finished ? 1.0 : 0.0);
  mr.gauge("sim.fsm_state_coverage").set(100.0 * out.cov.stateCoverage());
  mr.gauge("sim.fsm_transition_coverage")
      .set(100.0 * out.cov.transitionCoverage());
  mr.gauge("sim.fu_utilization_mean").set(utilMean);

  if (!vcdOut.empty()) {
    if (!rec.writeVcd(vcdOut)) {
      fail("cannot write " + vcdOut);
      return std::nullopt;
    }
    if (!quiet)
      std::cout << "wrote VCD to " << vcdOut << " (" << out.cycles
                << " cycles)\n";
  }
  return out;
}

/// Inputs for a recorded simulation: the first --verify run, topped up
/// with zeros for any input port it leaves unset.
std::map<std::string, std::uint64_t> simInputs(const DesignArgs& a,
                                               const RtlDesign& d) {
  std::map<std::string, std::uint64_t> inputs;
  if (!a.verifyRuns.empty()) inputs = a.verifyRuns.front();
  for (const auto& p : d.fn.ports())
    if (p.isInput && inputs.find(p.name) == inputs.end()) inputs[p.name] = 0;
  return inputs;
}

/// `mphls profile --flight DUMP`: decode a flight-recorder dump (the
/// JSONL file a crashed/SIGQUIT'd daemon wrote) into a human-readable
/// timeline. Events are recorded per thread, so the dump is unordered;
/// the decoder sorts by the global sequence number.
int runProfileFlight(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);

  struct Row {
    std::uint64_t seq = 0;
    double tUs = 0;
    std::uint64_t thread = 0;
    std::string kind, level, component, msg;
  };
  std::vector<Row> rows;
  std::string meta;
  std::string line;
  std::size_t badLines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto doc = json::parse(line);
    if (!doc || !doc->isObject()) {
      ++badLines;  // torn event from a mid-write crash: skip, keep rest
      continue;
    }
    if (const json::Node* fr = doc->get("flight_recorder")) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "threads %d, capacity/thread %d, total recorded %.0f",
                    (int)fr->getNumber("threads"),
                    (int)fr->getNumber("capacity_per_thread"),
                    fr->getNumber("total_recorded"));
      meta = buf;
      continue;
    }
    Row r;
    r.seq = (std::uint64_t)doc->getNumber("seq");
    r.tUs = doc->getNumber("t_us");
    r.thread = (std::uint64_t)doc->getNumber("thread");
    r.kind = doc->getString("kind");
    r.level = doc->getString("level");
    r.component = doc->getString("component");
    r.msg = doc->getString("msg");
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.seq < b.seq; });

  std::printf("flight recorder dump '%s'\n", path.c_str());
  if (!meta.empty()) std::printf("  %s\n", meta.c_str());
  std::printf("  %zu event(s) retained", rows.size());
  if (badLines > 0) std::printf(", %zu unparseable line(s)", badLines);
  std::printf("\n\n%8s %14s %6s %-10s %-5s %-16s %s\n", "seq", "t(ms)",
              "thr", "kind", "lvl", "component", "message");
  for (const Row& r : rows)
    std::printf("%8llu %14.3f %6llu %-10s %-5s %-16s %s\n",
                (unsigned long long)r.seq, r.tUs / 1e3,
                (unsigned long long)r.thread, r.kind.c_str(),
                r.level.c_str(), r.component.c_str(), r.msg.c_str());
  return 0;
}

/// `mphls profile design.bdl`: run the flow once, simulate it with the
/// recorder, and print a stage/pass time + counter table. The sim.*
/// gauges (FSM coverage, FU utilization) land in --stats output.
int runProfile(const DesignArgs& a, const SynthesisResult& result) {
  const RtlDesign& d = result.design;
  const auto inputs = simInputs(a, d);
  const auto sim = recordSimulation(d, inputs, a.vcdOut, a.quiet);
  if (!sim) return 1;

  std::printf("profile of '%s'\n", d.fn.name().c_str());
  const StageTimes& st = result.stages;
  std::printf("\n%-20s %12s\n", "stage", "seconds");
  std::printf("  %-18s %12.6f\n", "optimize", st.optimize);
  std::printf("  %-18s %12.6f\n", "schedule", st.schedule);
  std::printf("  %-18s %12.6f\n", "allocate", st.allocate);
  std::printf("  %-18s %12.6f\n", "control", st.control);
  std::printf("  %-18s %12.6f\n", "estimate", st.estimate);
  std::printf("  %-18s %12.6f\n", "check", st.check);
  std::printf("  %-18s %12.6f\n", "prove", st.prove);
  std::printf("  %-18s %12.6f\n", "total", st.total());

  const auto snap = obs::MetricsRegistry::global().snapshot();
  std::printf("\n%-20s %12s %10s\n", "pass", "seconds", "changes");
  for (const auto& [name, h] : snap.histograms) {
    constexpr std::string_view kPre = "pass.", kSuf = ".seconds";
    if (name.size() <= kPre.size() + kSuf.size() ||
        name.compare(0, kPre.size(), kPre) != 0 ||
        name.compare(name.size() - kSuf.size(), kSuf.size(), kSuf) != 0)
      continue;
    const std::string pass =
        name.substr(kPre.size(), name.size() - kPre.size() - kSuf.size());
    std::uint64_t changes = 0;
    for (const auto& [cname, v] : snap.counters)
      if (cname == "pass." + pass + ".changes") changes = v;
    std::printf("  %-18s %12.6f %10llu\n", pass.c_str(), h.sum,
                (unsigned long long)changes);
  }

  // Timing closure at the estimated clock (DESIGN.md §13).
  const sta::StaResult& staRes = result.sta;
  std::printf("\n%-20s %12s\n", "timing", "value");
  std::printf("  %-18s %12.3f\n", "clock (estimated)", staRes.clockNs);
  std::printf("  %-18s %12.3f\n", "cycle time", staRes.cycleTime);
  std::printf("  %-18s %+12.3f\n", "worst slack", staRes.worstSlack);
  std::printf("  %-18s %12.3f\n", "structural cycle", staRes.structuralCycleTime);
  std::printf("  %-18s %12zu\n", "false-path endpts", staRes.falsePathEndpoints);
  if (!staRes.paths.empty())
    std::printf("  critical: %s\n", staRes.paths.front().describe().c_str());

  std::printf("\nsimulation: %ld cycles (%s)\n", sim->res.cycles,
              sim->res.finished ? "halted" : "did not halt");
  std::printf("  %-18s %zu/%zu visited (%.1f%%)\n", "fsm states",
              sim->cov.visitedStates, sim->cov.totalStates,
              100.0 * sim->cov.stateCoverage());
  std::printf("  %-18s %zu/%zu covered (%.1f%%)\n", "fsm transitions",
              sim->cov.visitedTransitions, sim->cov.totalTransitions,
              100.0 * sim->cov.transitionCoverage());
  for (std::size_t f = 0; f < sim->util.size(); ++f)
    std::printf("  fu%zu (%s) busy %.1f%% of cycles\n", f,
                d.lib.component(d.binding.fus[f].comp).name.c_str(),
                100.0 * sim->util[f]);

  std::printf("\n%-32s %10s\n", "counter", "value");
  for (const auto& [name, v] : snap.counters)
    std::printf("  %-30s %10llu\n", name.c_str(), (unsigned long long)v);

  return writeObsOutputs(a.traceOut, a.statsOut, a.quiet);
}

/// A check report, or "<name>: clean (0 findings)" when it is empty.
void printReport(const std::string& name, const CheckReport& rep) {
  if (rep.empty())
    std::cout << name << ": clean (0 findings)\n";
  else
    std::cout << rep.render();
}

/// `mphls analyze --builtins`: the CI gate — semantic lints over every
/// built-in design, failing on any error-severity finding.
int runAnalyzeBuiltins(bool quiet) {
  int failures = 0;
  for (const auto& d : designs::all()) {
    DiagEngine diags;
    auto fn = compileBdl(d.source, diags);
    if (!fn) return fail(std::string("builtin '") + d.name +
                         "' failed to compile");
    CheckReport report;
    checkSemantics(*fn, report);
    std::cout << d.name << ": " << report.errorCount() << " error(s), "
              << report.warningCount() << " warning(s)\n";
    if (!quiet)
      for (const auto& diag : report.all())
        std::cout << "  " << diag.str() << "\n";
    if (!report.clean()) ++failures;
  }
  return failures == 0 ? 0 : 1;
}


/// Print one shared-command-layer result: the body on stdout, exit 1
/// unless it is ok.
int printResult(const DesignArgs& a, const cmd::Result& r) {
  std::cout << r.body;
  const int rc = writeObsOutputs(a.traceOut, a.statsOut, a.quiet);
  return r.ok ? rc : 1;
}

/// The designs a prove or sta run covers: every built-in, or the file.
std::vector<cmd::Request> targets(const DesignArgs& a,
                                  const cmd::Request& file) {
  if (!a.builtins) return {file};
  std::vector<cmd::Request> reqs;
  for (const auto& d : designs::all())
    reqs.push_back({d.name, d.source, "", a.opts});
  return reqs;
}

/// `mphls lint`: the static verification report.
int runLint(const DesignArgs& a, const cmd::Request& req) {
  if (a.jsonFormat) return printResult(a, cmd::lintJson(req));
  const cmd::Outcome<CheckReport> o = cmd::lintReport(req);
  if (!o.value) return fail(req.name + ": " + o.failure.error);
  printReport(req.name, *o.value);
  const int rc = writeObsOutputs(a.traceOut, a.statsOut, a.quiet);
  return o.value->clean() ? rc : 1;
}

/// `mphls analyze design.bdl`: facts listing + semantic lint report.
int runAnalyze(const DesignArgs& a, const cmd::Request& req) {
  if (a.builtins) return runAnalyzeBuiltins(a.quiet);
  // With an explicit --opt, analyze the post-pipeline IR — the facts the
  // narrowing pass actually consumes (and a debugging aid for it). With
  // --narrow as well, apply the narrowing pass too and show the widths
  // and re-derived facts it left behind.
  const bool post = a.optExplicit && a.opts.opt != OptLevel::None;
  if (a.jsonFormat) return printResult(a, cmd::analyzeJson(req, post));
  const auto o = cmd::analyzedFunction(req, post);
  if (!o.value) return fail(req.name + ": " + o.failure.error);
  const Function& fn = **o.value;
  const AnalysisResult res = analyzeFunction(fn);
  if (!a.quiet) {
    std::cout << "analysis of '" << fn.name() << "' (" << res.iterations
              << " block visits):\n";
    for (const Block& blk : fn.blocks()) {
      std::cout << "  block " << blk.name;
      if (!res.blockReachable[blk.id.index()]) std::cout << " (unreachable)";
      std::cout << ":\n";
      for (OpId oid : blk.ops) {
        const Op& o = fn.op(oid);
        if (!o.result.valid()) continue;
        std::cout << "    v" << o.result.get() << " = " << opName(o.kind)
                  << " [w" << fn.value(o.result).width
                  << "]: " << res.fact(o.result).str() << "\n";
      }
    }
    for (const Variable& vr : fn.vars())
      std::cout << "  var " << vr.name << " [w" << vr.width
                << "]: " << res.varFacts[vr.id.index()].str() << "\n";
  }

  CheckReport report;
  checkSemantics(fn, report);
  printReport(a.file, report);

  if (!a.dotFactsOut.empty()) {
    std::ofstream out(a.dotFactsOut);
    if (!out) return fail("cannot write " + a.dotFactsOut);
    const auto notes = factAnnotations(fn, res);
    out << controlFlowDot(fn);
    for (const Block& blk : fn.blocks())
      if (!blk.ops.empty()) out << dataFlowDot(fn, blk.id, notes);
    if (!a.quiet) std::cout << "wrote DOT to " << a.dotFactsOut << "\n";
  }
  return report.clean() ? 0 : 1;
}

/// `mphls prove`: the formal equivalence gate over one file or every
/// built-in design. Without --inject, exits 0 iff every proof is clean;
/// with --inject, exits 0 iff the injected bug was caught (proof NOT
/// clean) on every design it applies to — the gate's self-test.
int runProve(const DesignArgs& a, const cmd::Request& file) {
  const bool injecting = a.inject != fuzz::InjectedBug::None;
  if (a.jsonFormat && !a.builtins && !injecting)
    return printResult(a, cmd::proveJson(file, a.provePasses));
  const cmd::ProveInjection inject =
      fuzz::proveInjection(a.inject, a.opts.latencies);
  int applicable = 0, clean = 0;
  json::Node reports = json::Node::array();  // --format json
  for (const cmd::Request& req : targets(a, file)) {
    const auto o = cmd::proveReport(req, a.provePasses, inject);
    if (!o.value) return fail(req.name + ": " + o.failure.error);
    const CheckReport& rep = o.value->report;
    if (o.value->applicable) {
      ++applicable;
      if (rep.clean()) ++clean;
    }
    if (a.jsonFormat) {
      reports.push(cmd::reportJson(a.builtins ? "design" : "file", req.name,
                                   rep));
      continue;
    }
    const char* verdict =
        !o.value->applicable ? "injection not applicable (skipped)"
        : !injecting ? (rep.clean() ? "proved equivalent" : "NOT proved")
        : rep.clean() ? "injected bug NOT caught"
                      : "injected bug caught (proof failed as it should)";
    std::cout << req.name << ": " << verdict << "\n";
    const bool bad =
        injecting ? (o.value->applicable && rep.clean()) : !rep.clean();
    if ((!a.quiet || bad) && !rep.empty()) std::cout << rep.render();
  }

  const bool ok = injecting ? applicable > 0 && clean == 0
                            : clean == applicable;
  if (a.jsonFormat)
    std::cout << reports.dumpLine() << "\n";
  else if (injecting)
    std::cout << "prove --inject: " << applicable - clean << "/"
              << applicable << " applicable design(s) caught\n";
  const int rc = writeObsOutputs(a.traceOut, a.statsOut, a.quiet);
  return ok ? rc : 1;
}

/// `mphls sta`: path-level static timing analysis over one file or every
/// built-in design. Prints the summary, the K worst named paths and the
/// timing lint's findings; exits 1 on any error-severity finding.
int runSta(const DesignArgs& a, const cmd::Request& file) {
  if (a.jsonFormat && !a.builtins)
    return printResult(a, cmd::staJson(file, a.staClock, a.staPaths));
  bool ok = true;
  json::Node reports = json::Node::array();  // --builtins --format json
  for (const cmd::Request& req : targets(a, file)) {
    const auto o = cmd::staReport(req, a.staClock, a.staPaths);
    if (!o.value) return fail(req.name + ": " + o.failure.error);
    const sta::StaResult& r = o.value->timing;
    const CheckReport& rep = o.value->lint;
    ok = ok && rep.clean();
    if (a.jsonFormat) {
      reports.push(cmd::staJsonNode("design", req.name, *o.value));
      continue;
    }
    std::printf("%s: clock %.3f%s, cycle time %.3f, worst slack %+.3f,"
                " critical state %d\n",
                req.name.c_str(), r.clockNs,
                r.clockWasEstimated ? " (estimated)" : "", r.cycleTime,
                r.worstSlack, r.criticalState);
    std::printf("  %zu/%zu state(s) reachable, %zu endpoint(s); structural"
                " cycle time %.3f, %zu false-path endpoint(s) pruned\n",
                r.reachableStates, r.totalStates, r.endpointCount,
                r.structuralCycleTime, r.falsePathEndpoints);
    if (!a.quiet)
      for (const sta::TimingPath& p : r.paths)
        std::cout << "  " << p.describe() << "\n";
    if (!rep.empty() && (!a.quiet || !rep.clean())) std::cout << rep.render();
  }
  if (a.jsonFormat) std::cout << reports.dump();
  const int rc = writeObsOutputs(a.traceOut, a.statsOut, a.quiet);
  return ok ? rc : 1;
}

/// `mphls [synth] design.bdl` and `mphls profile design.bdl`.
int runSynth(const DesignArgs& a, const cmd::Request& req) {
  if (a.jsonFormat && a.cmdGiven && a.cmd == DesignCmd::Synth)
    return printResult(a, cmd::synthJson(req));
  DiagEngine diags;
  auto fn = compileBdl(req.source, diags, a.top);
  for (const auto& d : diags.all())
    std::cerr << a.file << ":" << d.str() << "\n";
  if (!fn) return 1;

  Synthesizer synth(a.opts);
  SynthesisResult result = synth.synthesize(std::move(*fn));
  const RtlDesign& d = result.design;

  if (a.cmd == DesignCmd::Profile) return runProfile(a, result);

  if (!a.quiet) {
    std::cout << "design '" << d.fn.name() << "': " << d.fn.numLiveOps()
              << " ops in " << d.fn.numBlocks() << " blocks after "
              << "optimization\n";
    std::cout << "scheduler: " << schedulerName(a.opts.scheduler)
              << "; static latency " << result.staticLatency()
              << " control steps\n";
    for (const auto& blk : d.fn.blocks()) {
      if (blk.ops.empty()) continue;
      BlockDeps deps(d.fn, blk);
      std::cout << "  " << blk.name << " (" << d.sched.of(blk.id).numSteps
                << " steps)\n"
                << renderBlockSchedule(deps, d.sched.of(blk.id));
    }
    std::cout << "datapath: " << d.regs.numRegs << " registers, "
              << d.binding.numFus() << " functional units (";
    for (int f = 0; f < d.binding.numFus(); ++f)
      std::cout << (f ? ", " : "")
                << d.lib.component(d.binding.fus[(std::size_t)f].comp).name;
    std::cout << "), " << d.ic.mux2to1Count << " 2:1 muxes\n";
    std::cout << "controller: " << d.ctrl.numStates() << " states ("
              << stateEncodingName(a.opts.encoding) << ", "
              << result.fsm.minimizedLogic.termCount()
              << " PLA terms); microcode "
              << result.microEncoded.wordWidth << "b/word encoded vs "
              << result.microHorizontal.wordWidth << "b horizontal\n";
    std::cout << "estimates: area " << result.area.total() << ", cycle time "
              << result.timing.cycleTime << "\n";
  }

  if (!a.dotOut.empty()) {
    std::ofstream out(a.dotOut);
    if (!out) return fail("cannot write " + a.dotOut);
    out << controlFlowDot(d.fn);
    for (const auto& blk : d.fn.blocks())
      if (!blk.ops.empty()) out << dataFlowDot(d.fn, blk.id);
    if (!a.quiet) std::cout << "wrote DOT to " << a.dotOut << "\n";
  }
  if (!a.verilogOut.empty()) {
    std::ofstream out(a.verilogOut);
    if (!out) return fail("cannot write " + a.verilogOut);
    out << emitVerilog(d);
    if (!a.quiet) std::cout << "wrote Verilog to " << a.verilogOut << "\n";
  }

  int failures = 0;
  if (!a.verifyRuns.empty()) {
    for (const auto& inputs : a.verifyRuns) {
      RtlExecResult res;
      const std::string msg = verifyAgainstBehavior(result, inputs, &res);
      std::cout << "verify";
      for (const auto& [k, v] : inputs) std::cout << " " << k << "=" << v;
      if (msg.empty()) {
        std::cout << " -> OK (" << res.cycles << " cycles;";
        for (const auto& [k, v] : res.outputs)
          std::cout << " " << k << "=" << v;
        std::cout << ")\n";
      } else {
        std::cout << " -> " << msg << "\n";
        ++failures;
      }
    }
  }

  if (a.sweep > 0) {
    auto points = exploreResourceSweep(req.source, a.sweep, a.opts, req.top);
    std::cout << "sweep (list scheduling, 1.." << a.sweep << " FUs):\n";
    std::printf("  %-8s %8s %12s %12s %8s\n", "FUs", "latency", "cycle",
                "area", "pareto");
    for (const auto& p : points)
      std::printf("  %-8d %8d %12.2f %12.1f %8s\n", p.limit, p.latencySteps,
                  p.cycleTime, p.area, p.pareto ? "*" : "");
  }

  if (!a.vcdOut.empty())
    if (!recordSimulation(d, simInputs(a, d), a.vcdOut, a.quiet)) ++failures;
  if (writeObsOutputs(a.traceOut, a.statsOut, a.quiet) != 0) ++failures;
  return failures == 0 ? 0 : 1;
}

/// Design subcommands: one flag table, then one runner per subcommand.
int runDesign(int argc, char** argv) {
  const auto parsed = cli::parseDesign(argc, argv);
  if (!parsed) return 2;
  const DesignArgs& a = *parsed;
  enableTracing(a.traceOut);
  if (!applyLogging(a.logFile, a.logLevel)) return 1;
  if (!a.flightIn.empty()) return runProfileFlight(a.flightIn);

  cmd::Request req{a.file, "", a.top, a.opts};
  if (!a.builtins) {
    std::ifstream in(a.file);
    if (!in) return fail("cannot open " + a.file);
    std::stringstream buf;
    buf << in.rdbuf();
    req.source = buf.str();
  }
  // Indexed by DesignCmd.
  static constexpr int (*kRun[])(const DesignArgs&, const cmd::Request&) = {
      runSynth, runLint, runAnalyze, runProve, runSta, runSynth};
  return kRun[(int)a.cmd](a, req);
}

/// `mphls fuzz`: differential co-simulation campaigns and corpus replay.
int runFuzz(int argc, char** argv) {
  auto parsed = cli::parseTool<cli::FuzzArgs>(argc, argv);
  if (!parsed) return 2;
  cli::FuzzArgs& a = *parsed;
  fuzz::CampaignOptions& c = a.campaign;
  if (!applyLogging(a.logFile, a.logLevel)) return 1;
  if (!a.save) c.corpusDir.clear();
  enableTracing(a.traceOut);
  // The live progress line is cosmetic, so it only runs when a human is
  // plausibly watching: stderr is a terminal and --quiet was not given.
  c.heartbeat = !a.quiet && isatty(2) != 0;

  if (!a.replayDir.empty()) {
    auto r = fuzz::replayCorpus(a.replayDir, c.diff, c.jobs);
    if (r.entries == 0) return fail("no corpus entries under " + a.replayDir);
    for (const auto& o : r.outcomes) {
      if (o.verdict.ok()) {
        if (!a.quiet)
          std::cout << "replay " << o.name << ": ok (" << o.verdict.pointsRun
                    << " points)\n";
        continue;
      }
      std::cout << "replay " << o.name << ": FAIL\n";
      for (const auto& f : o.verdict.failures) {
        const std::string pl = f.pointLabel();
        std::cout << "  [" << f.kind << "]"
                  << (pl.empty() ? "" : " " + pl) << ": " << f.detail << "\n";
      }
    }
    std::cout << "fuzz replay: " << r.entries << " entries, " << r.failed
              << " failing (" << a.matrixName << " matrix)\n";
    if (writeObsOutputs(a.traceOut, a.statsOut, a.quiet) != 0) return 1;
    return r.clean() ? 0 : 1;
  }

  fuzz::CampaignResult r = fuzz::runCampaign(c);
  if (!a.quiet || !r.clean()) {
    std::cout << "fuzz: " << r.seeds << " seeds x " << r.pointsPerProgram
              << " matrix points (" << a.matrixName << ", engine="
              << vm::engineKindName(c.diff.engine.kind) << "), "
              << r.pointsRun << " designs synthesized, " << r.simulations
              << " co-simulations in " << r.wallSeconds << "s ("
              << (r.wallSeconds > 0
                      ? (double)r.simulations / r.wallSeconds
                      : 0.0)
              << " cosims/s)\n";
    for (const auto& fc : r.failures) {
      const auto& first = fc.verdict.failures.front();
      const std::string pl = first.pointLabel();
      std::cout << "  seed " << fc.verdict.seed << ": [" << first.kind
                << "]" << (pl.empty() ? "" : " " + pl) << ": " << first.detail
                << "\n";
      if (!fc.corpusPath.empty())
        std::cout << "    saved " << fc.corpusPath << "\n";
      if (!fc.reducedPath.empty())
        std::cout << "    minimized (" << fc.reduceStats.finalStmts
                  << " stmts, " << fc.reduceStats.attempts
                  << " attempts) " << fc.reducedPath << "\n";
    }
    std::cout << "fuzz: " << r.failedPrograms << " failing programs ("
              << r.mismatches << " mismatches, " << r.checkFailures
              << " check findings, " << r.errors << " errors, "
              << r.divergences << " vm divergences, " << r.staFailures
              << " sta failures)\n";
  }

  if (a.outFile.empty() && !r.clean() && !c.corpusDir.empty())
    a.outFile = c.corpusDir + "/FUZZ_report.json";
  if (!a.outFile.empty()) {
    if (!json::writeFile(a.outFile,
                         fuzz::campaignReport(c, r, a.matrixName)))
      return fail("cannot write " + a.outFile);
    if (!a.quiet) std::cout << "wrote " << a.outFile << "\n";
  }
  if (writeObsOutputs(a.traceOut, a.statsOut, a.quiet) != 0) return 1;
  return r.clean() ? 0 : 1;
}

/// The running daemon, for the signal handlers. requestStop() is
/// async-signal-safe (one write(2) down the self-pipe).
std::atomic<serve::Server*> g_serveServer{nullptr};

void serveSignalHandler(int) {
  if (serve::Server* s = g_serveServer.load()) s->requestStop();
}

/// `mphls serve`: run the synthesis daemon until SIGTERM/SIGINT.
int runServe(int argc, char** argv) {
  auto parsed = cli::parseTool<cli::ServeArgs>(argc, argv);
  if (!parsed) return 2;
  const cli::ServeArgs& a = *parsed;
  // The daemon always records: the flight ring is cheap (a few MB, no
  // locks), and the whole point is having history when a crash arrives
  // unannounced. SIGQUIT dumps and keeps running; fatal signals dump and
  // re-raise.
  obs::FlightRecorder::installCrashHandlers(a.flightDump.c_str());
  if (!applyLogging(a.logFile, a.logLevel)) return 1;
  serve::Server server(a.server);
  std::string err;
  if (!server.start(err)) return fail("serve: " + err);
  g_serveServer.store(&server);
  std::signal(SIGTERM, serveSignalHandler);
  std::signal(SIGINT, serveSignalHandler);
  std::signal(SIGPIPE, SIG_IGN);
  // One flushed line with the resolved port: scripts bind port 0 and read
  // the real one from here.
  std::cout << "mphls serve: listening on 127.0.0.1:" << server.port()
            << " (jobs=" << resolveJobs(a.server.jobs) << ")" << std::endl;
  server.run();
  g_serveServer.store(nullptr);
  if (!a.quiet)
    std::cout << "mphls serve: drained " << server.sessionsOpened()
              << " session(s), exiting\n";
  return 0;
}

/// `mphls loadgen`: replay a deterministic request mix against a daemon.
int runLoadgen(int argc, char** argv) {
  auto parsed = cli::parseTool<cli::LoadgenArgs>(argc, argv);
  if (!parsed) return 2;
  const serve::LoadgenOptions& lo = parsed->loadgen;
  std::signal(SIGPIPE, SIG_IGN);
  const serve::LoadgenReport rep = serve::runLoadgen(lo);
  if (!rep.error.empty()) return fail("loadgen: " + rep.error);
  if (!parsed->quiet) {
    std::printf("loadgen: %d requests from %d client(s) in %.3fs"
                " (%.1f req/s)\n",
                rep.requestsSent, lo.clients, rep.wallSeconds,
                rep.requestsPerSecond);
    std::printf("  latency p50 %.2fms, p99 %.2fms; errors: %d transport,"
                " %d http, %d invalid-json\n",
                rep.p50Ms, rep.p99Ms, rep.transportErrors, rep.httpErrors,
                rep.invalidJson);
    std::printf("  frontend cache hit rate %.1f%%\n",
                100.0 * rep.cacheHitRate);
    if (!lo.reportPath.empty())
      std::printf("  wrote %s\n", lo.reportPath.c_str());
  }
  return rep.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The tools own argv[1]; everything else is a design subcommand, whose
  // token may follow options (`mphls --opt none lint d.bdl`).
  static constexpr struct {
    std::string_view name;
    int (*run)(int, char**);
  } kTools[] = {{"fuzz", runFuzz},
                {"serve", runServe},
                {"loadgen", runLoadgen}};
  if (argc > 1)
    for (const auto& t : kTools)
      if (argv[1] == t.name) return t.run(argc, argv);
  return runDesign(argc, argv);
}
