#include "fuzz/diff_runner.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>

#include "alloc/interconnect.h"
#include "core/frontend_cache.h"
#include "core/options.h"
#include "check/check.h"
#include "ctrl/fsm.h"
#include "fuzz/bdl_gen.h"
#include "ir/deps.h"
#include "ir/interp.h"
#include "lang/frontend.h"
#include "rtl/rtlsim.h"
#include "sta/sta.h"

namespace mphls::fuzz {

namespace {

std::string describeMismatch(
    const std::map<std::string, std::uint64_t>& want,
    const std::map<std::string, std::uint64_t>& got,
    const std::map<std::string, std::uint64_t>& inputs) {
  std::ostringstream oss;
  oss << "output mismatch on";
  for (const auto& [k, v] : inputs) oss << " " << k << "=" << v;
  oss << ":";
  for (const auto& [k, v] : want) oss << " " << k << " behavioral=" << v;
  for (const auto& [k, v] : got) oss << " " << k << " rtl=" << v;
  if (got.size() != want.size())
    oss << " (written-output sets differ: behavioral " << want.size()
        << ", rtl " << got.size() << ")";
  return oss.str();
}

}  // namespace

std::string MatrixPoint::label() const {
  std::ostringstream oss;
  oss << "sched=" << schedulerName(sched) << " fu=" << fuAllocMethodName(fu)
      << " reg=" << options::token(reg) << " enc=" << stateEncodingName(enc)
      << " opt=" << options::token(opt) << " narrow=" << (narrow ? 1 : 0)
      << " lat=" << (multicycle ? "multi" : "unit") << " fus=" << fus;
  return oss.str();
}

SynthesisOptions MatrixPoint::toOptions() const {
  SynthesisOptions so;
  so.scheduler = sched;
  so.fuMethod = fu;
  so.regMethod = reg;
  so.encoding = enc;
  so.opt = opt;
  so.resources = ResourceLimits::universalSet(fus);
  so.latencies =
      multicycle ? OpLatencyModel::multiCycle() : OpLatencyModel::unit();
  so.narrow = narrow;
  return so;
}

FuzzMatrix FuzzMatrix::quick() {
  FuzzMatrix m;
  m.schedulers = {SchedulerKind::List};
  m.allocators = {{FuAllocMethod::GreedyLocal, RegAllocMethod::LeftEdge}};
  m.encodings = {StateEncoding::Binary};
  m.optLevels = {OptLevel::Standard};
  m.narrows = {false, true};
  m.multicycles = {false};
  m.fuLimits = {2};
  return m;
}

FuzzMatrix FuzzMatrix::standard() {
  FuzzMatrix m;
  m.schedulers = {SchedulerKind::List, SchedulerKind::Asap,
                  SchedulerKind::ForceDirected};
  m.allocators = {{FuAllocMethod::GreedyLocal, RegAllocMethod::LeftEdge},
                  {FuAllocMethod::Clique, RegAllocMethod::Clique}};
  m.encodings = {StateEncoding::Binary, StateEncoding::OneHot};
  m.optLevels = {OptLevel::Standard};
  m.narrows = {false, true};
  m.multicycles = {false};
  m.fuLimits = {2};
  return m;
}

FuzzMatrix FuzzMatrix::full() {
  FuzzMatrix m;
  m.schedulers = {SchedulerKind::List,         SchedulerKind::Asap,
                  SchedulerKind::ForceDirected, SchedulerKind::Serial,
                  SchedulerKind::Freedom,       SchedulerKind::BranchBound,
                  SchedulerKind::Transform};
  m.allocators = {{FuAllocMethod::GreedyLocal, RegAllocMethod::LeftEdge},
                  {FuAllocMethod::Clique, RegAllocMethod::Clique},
                  {FuAllocMethod::InterconnectBlind, RegAllocMethod::Naive}};
  m.encodings = {StateEncoding::Binary, StateEncoding::Gray,
                 StateEncoding::OneHot};
  m.optLevels = {OptLevel::Standard, OptLevel::Aggressive};
  m.narrows = {false, true};
  m.multicycles = {false, true};
  m.fuLimits = {2};
  return m;
}

bool FuzzMatrix::parse(const std::string& name, FuzzMatrix& out) {
  if (name == "quick") out = quick();
  else if (name == "standard") out = standard();
  else if (name == "full") out = full();
  else return false;
  return true;
}

std::vector<MatrixPoint> FuzzMatrix::points() const {
  std::vector<MatrixPoint> pts;
  for (SchedulerKind s : schedulers)
    for (const auto& [fu, reg] : allocators)
      for (StateEncoding e : encodings)
        for (OptLevel o : optLevels)
          for (bool n : narrows)
            for (bool mc : multicycles)
              for (int f : fuLimits) {
                if (mc && s == SchedulerKind::ForceDirected) continue;
                MatrixPoint p;
                p.sched = s;
                p.fu = fu;
                p.reg = reg;
                p.enc = e;
                p.opt = o;
                p.narrow = n;
                p.multicycle = mc;
                p.fus = f;
                pts.push_back(p);
              }
  return pts;
}

bool parseInjectedBug(const std::string& name, InjectedBug& out) {
  if (name == "mul") out = InjectedBug::MulToAdd;
  else if (name == "sched") out = InjectedBug::ScheduleShift;
  else if (name == "bind") out = InjectedBug::SwappedBinding;
  else return false;
  return true;
}

cmd::ProveInjection proveInjection(InjectedBug bug,
                                   const OpLatencyModel& lat) {
  cmd::ProveInjection inj;
  inj.none = "no eligible mutation site in this design";
  switch (bug) {
    case InjectedBug::None:
      break;
    case InjectedBug::MulToAdd:
      // MulToAdd corrupts the IR before the backend, so the whole design —
      // controller included — is consistently wrong; it can only be caught
      // by proving the mutated function against the trusted one.
      inj.name = "inject:mul-to-add";
      inj.none = "design has no multiply to inject into";
      inj.ir = injectMulToAdd;
      break;
    case InjectedBug::ScheduleShift:
      inj.design = [lat](RtlDesign& d) { return injectScheduleShift(d, lat); };
      break;
    case InjectedBug::SwappedBinding:
      inj.design = [lat](RtlDesign& d) { return injectSwappedBinding(d, lat); };
      break;
  }
  return inj;
}

int injectMulToAdd(Function& fn) {
  int rewritten = 0;
  for (const Block& blk : fn.blocks())
    for (OpId oid : blk.ops)
      if (fn.op(oid).kind == OpKind::Mul) {
        fn.op(oid).kind = OpKind::Add;
        ++rewritten;
      }
  return rewritten;
}

int injectScheduleShift(RtlDesign& d, const OpLatencyModel& lat) {
  const Function& fn = d.fn;
  for (const Block& blk : fn.blocks()) {
    BlockSchedule& bs = d.sched.of(blk.id);
    const std::vector<int>& fuOf = d.binding.fuOfOp[blk.id.index()];
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const Op& o = fn.op(blk.ops[i]);
      int f = fuOf[i];
      if (f < 0 || lat.of(o.kind) != 1) continue;
      int s = bs.step[i];
      if (s < 1) continue;
      // The result must be latched into a register: consumers then read
      // the (now wrong) register instead of a no-longer-active unit
      // output, so the mutated design still executes end to end.
      if (!o.result.valid() ||
          d.lifetimes.itemOfValue[o.result.index()] < 0)
        continue;
      // The unit must be idle in the destination step.
      bool busy = false;
      for (std::size_t j = 0; j < blk.ops.size() && !busy; ++j) {
        if (j == i || fuOf[j] != f) continue;
        int js = bs.step[j];
        if (js <= s - 1 && s - 1 <= js + lat.of(fn.op(blk.ops[j]).kind) - 1)
          busy = true;
      }
      if (busy) continue;
      // Operands must be stable wiring (registers, ports, constants), and
      // at least one must read a register whose producing operation
      // completes exactly in step s-1: issuing in s-1 then latches the
      // register's previous contents instead of the fresh value.
      bool wired = true, stale = false;
      for (std::size_t a = 0; a < o.args.size() && wired; ++a) {
        Source src =
            operandSource(fn, d.lifetimes, d.regs, blk.id, i, a);
        if (src.kind == Source::Kind::Fu) {
          wired = false;
          break;
        }
        if (src.kind != Source::Kind::Reg) continue;
        ValueId root = rootValue(fn, o.args[a]);
        const Op& def = fn.defOf(root);
        if (def.isFree() || def.kind == OpKind::LoadVar) continue;
        for (std::size_t j = 0; j < blk.ops.size(); ++j)
          if (blk.ops[j] == def.id &&
              bs.step[j] + lat.of(def.kind) - 1 == s - 1)
            stale = true;
      }
      if (!wired || !stale) continue;
      bs.step[i] -= 1;
      d.ctrl = buildController(fn, d.sched, d.lifetimes, d.regs, d.binding,
                               d.ic, lat);
      return 1;
    }
  }
  return 0;
}

int injectSwappedBinding(RtlDesign& d, const OpLatencyModel& lat) {
  const Function& fn = d.fn;
  for (const Block& blk : fn.blocks()) {
    const std::vector<int>& fuOf = d.binding.fuOfOp[blk.id.index()];
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const Op& o = fn.op(blk.ops[i]);
      if (fuOf[i] < 0 || o.args.size() != 2) continue;
      if (opIsCommutative(o.kind) || o.kind == OpKind::Select) continue;
      if (!o.result.valid()) continue;
      Source sa = operandSource(fn, d.lifetimes, d.regs, blk.id, i, 0);
      Source sb = operandSource(fn, d.lifetimes, d.regs, blk.id, i, 1);
      // Identical sources would make the swap a no-op; same-step unit
      // outputs are left alone to keep the rebuilt wiring well-formed.
      if (sa == sb || sa.kind == Source::Kind::Fu ||
          sb.kind == Source::Kind::Fu)
        continue;
      std::vector<bool>& sw = d.binding.swappedOfOp[blk.id.index()];
      sw[i] = !sw[i];
      d.ic = buildInterconnect(fn, d.sched, d.lifetimes, d.regs, d.binding,
                               d.lib, lat);
      d.ctrl = buildController(fn, d.sched, d.lifetimes, d.regs, d.binding,
                               d.ic, lat);
      return 1;
    }
  }
  return 0;
}

std::string_view stageExitKind(std::string_view firstErrorId) {
  if (firstErrorId == "timing.estimate-divergence") return "sta-divergence";
  if (firstErrorId == "timing.negative-slack" ||
      firstErrorId == "timing.comb-loop")
    return "sta-negative-slack";
  if (firstErrorId == "timing.analysis-error") return "sta-crash";
  return "check";
}

std::vector<MatrixPoint> ProgramVerdict::failingPoints() const {
  std::vector<MatrixPoint> pts;
  for (const PointFailure& f : failures) {
    bool seen = false;
    for (const MatrixPoint& p : pts)
      if (p.label() == f.point.label()) {
        seen = true;
        break;
      }
    if (!seen) pts.push_back(f.point);
  }
  return pts;
}

ProgramVerdict runSource(const std::string& source, std::uint64_t seed,
                         const DiffOptions& options) {
  ProgramVerdict v;
  v.seed = seed;

  // Golden behavior: the interpreter on the raw, unoptimized compile.
  DiagEngine diags;
  auto golden = compileBdl(source, diags, options.top);
  if (!golden) {
    v.failures.push_back({MatrixPoint{}, "compile", diags.summary(), -1});
    return v;
  }
  v.compiled = true;

  std::vector<std::string> names;
  for (const Port& p : golden->ports())
    if (p.isInput) names.push_back(p.name);

  // Per-program engine options: mix the program seed into the sampling
  // stream so "2% cross-checks" draws differently (but reproducibly) for
  // every program.
  vm::EngineOptions eng = options.engine;
  eng.seed ^= seed * 0x9e3779b97f4a7c15ull;

  std::vector<std::map<std::string, std::uint64_t>> trialIns, goldenOuts;
  vm::BehavSim gi(*golden, eng);
  for (int t = 0; t < options.trials; ++t) {
    auto in = randomInputs(names, seed, t);
    ExecResult r;
    try {
      r = gi.run(in, options.maxBlockExecs);
    } catch (const vm::DivergenceError& e) {
      v.failures.push_back(
          {MatrixPoint{}, "vm-divergence-behav", e.what(), t});
      return v;
    }
    if (!r.finished) {
      v.failures.push_back({MatrixPoint{}, "nonterminating",
                            "behavioral execution hit the block budget",
                            t});
      return v;
    }
    trialIns.push_back(std::move(in));
    goldenOuts.push_back(std::move(r.outputs));
  }

  std::vector<std::shared_ptr<const Function>> linted;
  for (const MatrixPoint& p : options.points) {
    auto fail = [&](const std::string& kind, const std::string& detail,
                    int trial = -1) {
      v.failures.push_back({p, kind, detail, trial});
    };
    try {
      Synthesizer synth(p.toOptions());
      const std::shared_ptr<const Function> base =
          FrontendCache::global().get(source, options.top, p.opt, p.narrow);
      // The semantic lints only warn, so no verdict depends on them; they
      // run once per distinct function to catch analyzer crashes.
      if (std::find(linted.begin(), linted.end(), base) == linted.end()) {
        CheckReport semantics;
        checkSemantics(*base, semantics);
        linted.push_back(base);
      }
      Function work = base->clone();
      if (options.inject == InjectedBug::MulToAdd) injectMulToAdd(work);
      if (options.preBackend) options.preBackend(work, p);
      SynthesisResult r = synth.synthesizeOptimized(work);
      OpLatencyModel lat = p.multicycle ? OpLatencyModel::multiCycle()
                                        : OpLatencyModel::unit();
      // The synthesizer's stage exits checked the design it built; one
      // changed afterwards is re-checked below.
      bool changed = options.postSynthesis != nullptr;
      if (options.inject == InjectedBug::ScheduleShift)
        changed |= injectScheduleShift(r.design, lat) > 0;
      if (options.inject == InjectedBug::SwappedBinding)
        changed |= injectSwappedBinding(r.design, lat) > 0;
      if (options.postSynthesis) options.postSynthesis(r, p);
      ++v.pointsRun;

      // STA oracle, before the structural checks so its failures keep
      // their own kinds: the timing engine must not crash on any
      // generated design, must close timing at its own estimated clock,
      // and must agree with the estimator it cross-validates.
      bool staFailed = false;
      try {
        if (changed) r.sta = sta::runSta(r.design);
        const sta::StaResult& sr = r.sta;
        if (std::fabs(sr.cycleTime - sr.estimatedCycleTime) > 1e-6) {
          std::ostringstream oss;
          oss << "STA cycle time " << sr.cycleTime
              << " != estimateTiming " << sr.estimatedCycleTime;
          fail("sta-divergence", oss.str());
          staFailed = true;
        } else if (sr.worstSlack < -1e-9 || sr.combLoop) {
          fail("sta-negative-slack",
               sr.combLoop ? "combinational loop in timing graph"
                           : sr.paths.empty()
                                 ? "negative slack"
                                 : sr.paths.front().describe());
          staFailed = true;
        }
      } catch (const std::exception& e) {
        fail("sta-crash", e.what());
        staFailed = true;
      }
      if (staFailed) {
        if (options.stopAtFirstFailure) return v;
        continue;
      }

      // The netlist lint, plus the stage analyzers for a changed design
      // (the oracle above covers timing, the frontend the semantics).
      CheckOptions co;
      co.resources = p.resourceLimited()
                         ? ResourceLimits::universalSet(p.fus)
                         : ResourceLimits::unlimited();
      co.latencies = lat;
      co.schedule = co.binding = co.controller = changed;
      co.semantics = false;
      co.timing = false;
      CheckReport rep = checkDesign(r.design, co);
      if (!rep.clean()) {
        fail("check", rep.firstError());
        if (options.stopAtFirstFailure) return v;
        continue;
      }

      // One engine per point: the bytecode program is compiled once here
      // and reused across all input trials (the compile cache).
      vm::RtlSim sim(r.design, eng);
      for (int t = 0; t < options.trials; ++t) {
        auto res = sim.run(trialIns[(std::size_t)t], options.maxCycles);
        ++v.simulations;
        if (!res.finished) {
          fail("rtl-timeout",
               "RTL simulation did not reach the halt state", t);
        } else if (res.outputs != goldenOuts[(std::size_t)t]) {
          fail("mismatch",
               describeMismatch(goldenOuts[(std::size_t)t], res.outputs,
                                trialIns[(std::size_t)t]),
               t);
        }
        if (!v.failures.empty() && options.stopAtFirstFailure) return v;
      }
    } catch (const vm::DivergenceError& e) {
      fail("vm-divergence", e.what());
      if (options.stopAtFirstFailure) return v;
    } catch (const CheckFailure& e) {
      // A stage exit failed before this runner's oracles got a look; its
      // first finding names the kind.
      fail(std::string(stageExitKind(e.report().firstErrorId())), e.what());
      if (options.stopAtFirstFailure) return v;
    } catch (const std::exception& e) {
      fail("error", e.what());
      if (options.stopAtFirstFailure) return v;
    }
  }
  return v;
}

}  // namespace mphls::fuzz
