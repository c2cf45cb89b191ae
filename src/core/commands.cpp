#include "core/commands.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "check/check.h"
#include "common/diag.h"
#include "core/frontend_cache.h"
#include "lang/frontend.h"
#include "opt/pass.h"
#include "rtl/verilog.h"
#include "sec/passes.h"
#include "sec/prove.h"
#include "sta/sta.h"
#include "vm/sim_engine.h"

namespace mphls::cmd {

namespace {

/// A single-line report body, as the lint, analyze and prove renderers
/// print it.
std::string lineBody(const json::Node& j) { return j.dumpLine() + "\n"; }

/// Single-line error report: {"file":<name>,"error":<message>}.
Result errorResult(const std::string& name, const Failure& f) {
  json::Node j = json::Node::object();
  j["file"] = name;
  j["error"] = f.error;
  return {lineBody(j), false, f.inputError};
}

/// The IR the request's design point starts from, out of the shared
/// frontend cache at (opt, narrow). A rejected source fills `f` as an
/// input error; a pass that breaks the IR is an internal error, reported
/// like a failed synthesis. Either way it returns null.
std::shared_ptr<const Function> compileCached(const Request& req,
                                              OptLevel opt, bool narrow,
                                              Failure& f) {
  try {
    return FrontendCache::global().get(req.source, req.top, opt, narrow);
  } catch (const CompileError& e) {
    f = {e.what(), true};
  } catch (const InternalError& e) {
    f = {e.what(), false};
  }
  return nullptr;
}

/// Compile through the cache and run the backend. A synthesis failure's
/// message is prefixed with `prefix`.
std::optional<SynthesisResult> synthesized(const Request& req,
                                           const std::string& prefix,
                                           Failure& f) {
  const auto fn = compileCached(req, req.opts.opt, req.opts.narrow, f);
  if (!fn) return std::nullopt;
  try {
    return Synthesizer(req.opts).synthesizeOptimized(*fn);
  } catch (const InternalError& e) {
    f = {prefix + e.what(), false};
    return std::nullopt;
  }
}

}  // namespace

json::Node reportJson(const std::string& key, const std::string& name,
                      const CheckReport& rep) {
  json::Node j = json::Node::object();
  j[key] = name;
  rep.addJson(j);
  return j;
}

Result synthJson(const Request& req) {
  Failure f;
  const auto res = synthesized(req, "", f);
  if (!res) return errorResult(req.name, f);
  const SynthesisResult& r = *res;
  const RtlDesign& d = r.design;

  json::Node j = json::Node::object();
  j["file"] = req.name;
  j["design"] = d.fn.name();
  j["scheduler"] = std::string(schedulerName(req.opts.scheduler));
  j["encoding"] = std::string(stateEncodingName(req.opts.encoding));
  j["ops"] = d.fn.numLiveOps();
  j["blocks"] = d.fn.numBlocks();
  j["static_latency"] = r.staticLatency();
  j["registers"] = d.regs.numRegs;
  json::Node fus = json::Node::array();
  for (int f = 0; f < d.binding.numFus(); ++f)
    fus.push(d.lib.component(d.binding.fus[(std::size_t)f].comp).name);
  j["fus"] = std::move(fus);
  j["muxes"] = d.ic.mux2to1Count;
  j["states"] = d.ctrl.numStates();
  j["pla_terms"] = r.fsm.minimizedLogic.termCount();
  j["microcode_word_encoded"] = r.microEncoded.wordWidth;
  j["microcode_word_horizontal"] = r.microHorizontal.wordWidth;
  j["area"] = r.area.total();
  j["cycle_time"] = r.timing.cycleTime;
  return {j.dump(), true, false};
}

Outcome<CheckReport> lintReport(const Request& req) {
  // Every finding in one report: the semantic lints, the stage exits'
  // findings (warnings included; a failing stage's report in place of a
  // finished design) and the netlist lint.
  Outcome<CheckReport> out;
  const auto fn = compileCached(req, req.opts.opt, req.opts.narrow,
                                out.failure);
  if (!fn) return out;
  CheckReport rep;
  checkSemantics(*fn, rep);
  try {
    const SynthesisResult r = Synthesizer(req.opts).synthesizeOptimized(*fn);
    rep.merge(r.checks);
    if (req.opts.latencies.isUnit()) lintVerilog(emitVerilog(r.design), rep);
  } catch (const CheckFailure& e) {
    rep.merge(e.report());
  } catch (const InternalError& e) {
    out.failure = {std::string("synthesis failed before checking: ") +
                       e.what(),
                   false};
    return out;
  }
  out.value = std::move(rep);
  return out;
}

Result lintJson(const Request& req) {
  const Outcome<CheckReport> o = lintReport(req);
  if (!o.value) return errorResult(req.name, o.failure);
  return {lineBody(reportJson("file", req.name, *o.value)), o.value->clean(),
          false};
}

Outcome<std::shared_ptr<const Function>> analyzedFunction(
    const Request& req, bool postPipeline) {
  Outcome<std::shared_ptr<const Function>> out;
  if (auto fn =
          compileCached(req, postPipeline ? req.opts.opt : OptLevel::None,
                        req.opts.narrow, out.failure))
    out.value = std::move(fn);
  return out;
}

Result analyzeJson(const Request& req, bool postPipeline) {
  const auto o = analyzedFunction(req, postPipeline);
  if (!o.value) return errorResult(req.name, o.failure);
  CheckReport report;
  checkSemantics(**o.value, report);
  return {lineBody(reportJson("file", req.name, report)), report.clean(),
          false};
}

json::Node staJsonNode(const std::string& key, const std::string& name,
                       const StaReport& r) {
  json::Node j = sta::staReportJson(key, name, r.timing);
  r.lint.addJson(j);
  return j;
}

Outcome<StaReport> staReport(const Request& req, double clockNs,
                             int maxPaths) {
  Outcome<StaReport> out;
  auto result = synthesized(
      req, "synthesis failed before timing analysis: ", out.failure);
  if (!result) return out;
  // The timing stage exit ran STA at the estimated clock with the default
  // path count; only another clock or count needs a run of its own. The
  // lint reports at least one negative-slack path even under --paths 0.
  StaReport r;
  if (clockNs <= 0 && maxPaths == sta::StaOptions{}.maxPaths)
    r.timing = std::move(result->sta);
  else
    r.timing = sta::runSta(result->design, {clockNs, std::max(maxPaths, 1)});
  TimingLintOptions topt;
  topt.maxReported = std::max(maxPaths, 1);
  checkTiming(result->design, r.timing, topt, r.lint);
  if (maxPaths == 0) r.timing.paths.clear();
  out.value = std::move(r);
  return out;
}

Result staJson(const Request& req, double clockNs, int maxPaths) {
  const Outcome<StaReport> o = staReport(req, clockNs, maxPaths);
  if (!o.value) return errorResult(req.name, o.failure);
  return {staJsonNode("file", req.name, *o.value).dump(),
          o.value->lint.clean(), false};
}

Outcome<ProveReport> proveReport(const Request& req, bool provePasses,
                                 const ProveInjection& inject) {
  Outcome<ProveReport> out;
  const auto raw = compileCached(req, OptLevel::None, false, out.failure);
  if (!raw) return out;
  ProveReport pr;
  CheckReport& rep = pr.report;
  Function fn = raw->clone();
  if (provePasses) {
    // The pipeline pass by pass, each translation-validated.
    if (auto pm = PassManager::forLevel(req.opts.opt))
      sec::runPipelineValidated(*pm, fn, rep);
    if (req.opts.narrow) {
      PassManager pm = PassManager::narrowing();
      sec::runPipelineValidated(pm, fn, rep);
    }
  } else {
    optimize(fn, req.opts.opt, req.opts.narrow);
  }
  auto inapplicable = [&] {
    pr.applicable = false;
    rep.note("sec.inject.inapplicable", fn.name(), inject.none);
  };
  if (inject.ir) {
    Function mutated = fn.clone();
    if (inject.ir(mutated) == 0)
      inapplicable();
    else
      sec::proveFunctionEquivalence(fn, mutated, inject.name, rep);
    out.value = std::move(pr);
    return out;
  }
  SynthesisOptions so = req.opts;
  so.prove = false;  // the proof runs below, reporting instead of throwing
  try {
    SynthesisResult r = Synthesizer(so).synthesizeOptimized(fn);
    if (inject.design && inject.design(r.design) == 0)
      inapplicable();
    else
      rep.merge(sec::proveEquivalence(r.design));
  } catch (const InternalError& e) {
    out.failure = {e.what(), false};
    return out;
  }
  out.value = std::move(pr);
  return out;
}

Result proveJson(const Request& req, bool provePasses) {
  const Outcome<ProveReport> o = proveReport(req, provePasses);
  if (!o.value) return errorResult(req.name, o.failure);
  // One-element array: the prove CLI prints an array even for one file.
  json::Node reports = json::Node::array();
  reports.push(reportJson("file", req.name, o.value->report));
  return {lineBody(reports), o.value->report.clean(), false};
}

Result simJson(const Request& req,
               const std::map<std::string, std::uint64_t>& inputs) {
  Failure f;
  const auto result = synthesized(req, "", f);
  if (!result) return errorResult(req.name, f);
  const RtlDesign& d = result->design;
  std::map<std::string, std::uint64_t> in = inputs;
  for (const auto& p : d.fn.ports())
    if (p.isInput && in.find(p.name) == in.end()) in[p.name] = 0;

  vm::RtlSim sim(d);
  RtlExecResult res;
  try {
    res = sim.run(in);
  } catch (const std::exception& e) {
    return errorResult(req.name, {e.what(), false});
  }
  json::Node j = json::Node::object();
  j["file"] = req.name;
  j["design"] = d.fn.name();
  json::Node jin = json::Node::object();
  for (const auto& [k, v] : in) jin[k] = v;
  j["inputs"] = std::move(jin);
  json::Node jout = json::Node::object();
  for (const auto& [k, v] : res.outputs) jout[k] = v;
  j["outputs"] = std::move(jout);
  j["cycles"] = (long)res.cycles;
  j["finished"] = res.finished;
  return {j.dump(), res.finished, false};
}

}  // namespace mphls::cmd
