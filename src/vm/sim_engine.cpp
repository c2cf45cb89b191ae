#include "vm/sim_engine.h"

#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mphls::vm {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic Bernoulli draw: true with probability `rate`.
bool sampleDraw(const EngineOptions& opts, std::uint64_t& draws) {
  if (opts.crossCheck >= 1.0) return true;
  if (opts.crossCheck <= 0.0) return false;
  std::uint64_t r = splitmix64(opts.seed ^ ++draws);
  // Compare the top 53 bits against the rate at double precision.
  return (double)(r >> 11) < opts.crossCheck * 9007199254740992.0;
}

bool wantCheck(const EngineOptions& opts, std::uint64_t& draws) {
  if (opts.kind != EngineKind::Vm) return false;
  return sampleDraw(opts, draws);
}

void describeInputs(std::ostringstream& oss,
                    const std::map<std::string, std::uint64_t>& inputs) {
  oss << " inputs:";
  for (const auto& [k, v] : inputs) oss << " " << k << "=" << v;
}

void describeOutputs(std::ostringstream& oss, const char* tag,
                     const std::map<std::string, std::uint64_t>& outs) {
  oss << " " << tag << ":";
  if (outs.empty()) oss << " (none)";
  for (const auto& [k, v] : outs) oss << " " << k << "=" << v;
}

}  // namespace

std::string_view engineKindName(EngineKind k) {
  switch (k) {
    case EngineKind::Interp: return "interp";
    case EngineKind::Vm: return "vm";
  }
  return "?";
}

bool parseEngineKind(const std::string& name, EngineKind& out) {
  if (name == "interp") out = EngineKind::Interp;
  else if (name == "vm") out = EngineKind::Vm;
  else return false;
  return true;
}

BehavSim::BehavSim(const Function& fn, const EngineOptions& opts)
    : fn_(fn), opts_(opts) {
  if (opts_.kind != EngineKind::Interp) prog_ = compileBehavioral(fn_);
  // Counter handles are stable for the registry's lifetime; resolving them
  // here keeps the per-run path free of locked name lookups.
  runs_ = &obs::MetricsRegistry::global().counter("vm.behav_runs");
  checks_ = &obs::MetricsRegistry::global().counter("vm.cross_checks");
}

ExecResult BehavSim::run(const std::map<std::string, std::uint64_t>& inputs,
                         long maxBlockExecs) const {
  if (opts_.kind == EngineKind::Interp)
    return Interpreter(fn_).run(inputs, maxBlockExecs);

  runs_->add(1);
  ExecResult got;
  if (obs::Tracer::global().enabled()) {
    obs::TraceSpan span("vm.exec", fn_.name());
    got = runBehavProgram(prog_, scratch_, inputs, maxBlockExecs);
  } else {
    got = runBehavProgram(prog_, scratch_, inputs, maxBlockExecs);
  }
  if (wantCheck(opts_, draws_)) {
    checks_->add(1);
    ExecResult want = Interpreter(fn_).run(inputs, maxBlockExecs);
    if (got.outputs != want.outputs || got.finished != want.finished ||
        got.opsExecuted != want.opsExecuted ||
        got.blockTrace != want.blockTrace) {
      std::ostringstream oss;
      oss << "behavioral VM diverged from the interpreter on '" << fn_.name()
          << "':";
      describeInputs(oss, inputs);
      describeOutputs(oss, "interp", want.outputs);
      describeOutputs(oss, "vm", got.outputs);
      if (got.finished != want.finished)
        oss << " finished: interp=" << want.finished << " vm="
            << got.finished;
      if (got.opsExecuted != want.opsExecuted)
        oss << " opsExecuted: interp=" << want.opsExecuted << " vm="
            << got.opsExecuted;
      if (got.blockTrace != want.blockTrace)
        oss << " block traces differ (interp " << want.blockTrace.size()
            << " blocks, vm " << got.blockTrace.size() << ")";
      throw DivergenceError(oss.str());
    }
  }
  return got;
}

RtlSim::RtlSim(const RtlDesign& design, const EngineOptions& opts)
    : d_(design), opts_(opts) {
  if (opts_.kind != EngineKind::Interp) prog_ = compileRtl(d_);
  runs_ = &obs::MetricsRegistry::global().counter("vm.rtl_runs");
  checks_ = &obs::MetricsRegistry::global().counter("vm.cross_checks");
}

RtlExecResult RtlSim::run(const std::map<std::string, std::uint64_t>& inputs,
                          long maxCycles, const SimObserver& observe) const {
  if (opts_.kind == EngineKind::Interp)
    return RtlSimulator(d_).run(inputs, maxCycles, observe);

  runs_->add(1);
  RtlExecResult got;
  if (obs::Tracer::global().enabled()) {
    obs::TraceSpan span("vm.exec", d_.fn.name());
    got = runRtlProgram(prog_, scratch_, inputs, maxCycles, observe);
  } else {
    got = runRtlProgram(prog_, scratch_, inputs, maxCycles, observe);
  }
  if (wantCheck(opts_, draws_)) {
    checks_->add(1);
    RtlExecResult want = RtlSimulator(d_).run(inputs, maxCycles);
    if (got.outputs != want.outputs || got.cycles != want.cycles ||
        got.finished != want.finished) {
      std::ostringstream oss;
      oss << "RTL VM diverged from the simulator on '" << d_.fn.name()
          << "':";
      describeInputs(oss, inputs);
      describeOutputs(oss, "interp", want.outputs);
      describeOutputs(oss, "vm", got.outputs);
      if (got.cycles != want.cycles)
        oss << " cycles: interp=" << want.cycles << " vm=" << got.cycles;
      if (got.finished != want.finished)
        oss << " finished: interp=" << want.finished << " vm="
            << got.finished;
      throw DivergenceError(oss.str());
    }
  }
  return got;
}

}  // namespace mphls::vm
