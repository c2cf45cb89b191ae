// Bytecode-VM tests: differential bit-identity against the tree-walking
// interpreters (the oracle), width-corner arithmetic, per-cycle observer
// equivalence (VCD byte-identity), compile caching, and the cross-checking
// SimEngine modes.
#include <gtest/gtest.h>

#include <sstream>

#include "common/bitutil.h"
#include "core/designs.h"
#include "core/synthesizer.h"
#include "fuzz/bdl_gen.h"
#include "ir/interp.h"
#include "lang/frontend.h"
#include "obs/metrics.h"
#include "rtl/rtlsim.h"
#include "rtl/sim_trace.h"
#include "vm/sim_engine.h"
#include "vm/vm.h"

namespace mphls {
namespace {

void expectExecEqual(const ExecResult& want, const ExecResult& got,
                     const std::string& ctx) {
  EXPECT_EQ(want.finished, got.finished) << ctx;
  EXPECT_EQ(want.outputs, got.outputs) << ctx;
  EXPECT_EQ(want.opsExecuted, got.opsExecuted) << ctx;
  ASSERT_EQ(want.blockTrace.size(), got.blockTrace.size()) << ctx;
  for (std::size_t i = 0; i < want.blockTrace.size(); ++i)
    ASSERT_EQ(want.blockTrace[i], got.blockTrace[i]) << ctx << " block " << i;
}

/// Flattened per-cycle observation, for comparing observer streams.
struct CycleLog {
  long cycle;
  std::uint64_t state, nextState;
  std::vector<std::uint64_t> regs, outs;
  std::vector<bool> fuActive;

  friend bool operator==(const CycleLog& a, const CycleLog& b) {
    return a.cycle == b.cycle && a.state == b.state &&
           a.nextState == b.nextState && a.regs == b.regs &&
           a.outs == b.outs && a.fuActive == b.fuActive;
  }
};

SimObserver logObserver(std::vector<CycleLog>& log) {
  return [&log](const SimCycle& sc) {
    log.push_back({sc.cycle, sc.state, sc.nextState, *sc.regs, *sc.outs,
                   *sc.fuActive});
  };
}

// ------------------------------------------------- behavioral differential

TEST(VmBehav, DifferentialSweepRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    fuzz::GenProgram prog = fuzz::generateProgram(seed);
    std::string source = prog.render();
    Function fn = compileBdlOrThrow(source);
    Interpreter interp(fn);
    vm::BehavProgram p = vm::compileBehavioral(fn);
    vm::BehavScratch scratch;
    for (int trial = 0; trial < 4; ++trial) {
      auto inputs = fuzz::randomInputs(prog.inputNames(), seed, trial);
      ExecResult want = interp.run(inputs);
      ExecResult got = vm::runBehavProgram(p, scratch, inputs);
      std::ostringstream ctx;
      ctx << "seed " << seed << " trial " << trial;
      expectExecEqual(want, got, ctx.str());
    }
  }
}

TEST(VmBehav, BlockBudgetMatchesInterpreter) {
  // An infinite loop: the VM must stop at the same block count with
  // finished=false, empty outputs and an identical (truncated) trace.
  Function fn("spin");
  PortId out = fn.addOutput("o", 8);
  BlockId entry = fn.addBlock("entry");
  BlockId loop = fn.addBlock("loop");
  fn.setEntry(entry);
  ValueId one = fn.emitConst(entry, 1, 8);
  fn.emitWrite(entry, out, one);
  fn.setJump(entry, loop);
  fn.setJump(loop, loop);

  Interpreter interp(fn);
  vm::BehavProgram p = vm::compileBehavioral(fn);
  vm::BehavScratch scratch;
  for (long budget : {1L, 7L, 100L}) {
    ExecResult want = interp.run({}, budget);
    ExecResult got = vm::runBehavProgram(p, scratch, {}, budget);
    expectExecEqual(want, got, "budget " + std::to_string(budget));
    EXPECT_FALSE(got.finished);
    EXPECT_TRUE(got.outputs.empty());
  }
}

// ------------------------------------------------------------ width corners

/// One-op function: o = a <op> b at the given widths.
Function binaryFn(OpKind k, int wa, int wb, int wr) {
  Function fn("corner");
  PortId pa = fn.addInput("a", wa);
  PortId pb = fn.addInput("b", wb);
  PortId po = fn.addOutput("o", wr);
  BlockId blk = fn.addBlock("entry");
  fn.setEntry(blk);
  ValueId va = fn.emitRead(blk, pa);
  ValueId vb = fn.emitRead(blk, pb);
  ValueId r = fn.emitBinary(blk, k, va, vb, wr);
  fn.emitWrite(blk, po, r);
  fn.setReturn(blk);
  return fn;
}

std::vector<std::uint64_t> cornerValues(int w) {
  std::uint64_t m = maskBits(w);
  std::vector<std::uint64_t> vals = {0, 1, m, m - 1, m >> 1,
                                     (std::uint64_t)1 << (w - 1),
                                     0xAAAAAAAAAAAAAAAAull & m,
                                     123456789ull & m};
  return vals;
}

TEST(VmCorners, BinaryOpsAtExtremeWidths) {
  const OpKind kinds[] = {OpKind::Add, OpKind::Sub, OpKind::Mul,
                          OpKind::Div, OpKind::UDiv, OpKind::Mod,
                          OpKind::UMod, OpKind::And, OpKind::Or,
                          OpKind::Xor, OpKind::Shl, OpKind::Shr,
                          OpKind::Sar, OpKind::Eq,  OpKind::Ne,
                          OpKind::Lt,  OpKind::Le,  OpKind::Gt,
                          OpKind::Ge,  OpKind::ULt, OpKind::ULe,
                          OpKind::UGt, OpKind::UGe};
  for (int w : {1, 2, 7, 63, 64}) {
    for (OpKind k : kinds) {
      int wr = opIsCompare(k) ? 1 : w;
      Function fn = binaryFn(k, w, w, wr);
      Interpreter interp(fn);
      vm::BehavProgram p = vm::compileBehavioral(fn);
      vm::BehavScratch scratch;
      for (std::uint64_t a : cornerValues(w)) {
        for (std::uint64_t b : cornerValues(w)) {
          std::map<std::string, std::uint64_t> in = {{"a", a}, {"b", b}};
          ExecResult want = interp.run(in);
          ExecResult got = vm::runBehavProgram(p, scratch, in);
          ASSERT_EQ(want.outputs, got.outputs)
              << opName(k) << " w=" << w << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(VmCorners, MixedWidthSignedDivision) {
  // Signed div/mod with operands of different widths exercises the
  // per-operand sign extension (INT64_MIN / -1 lives here at w=64).
  for (auto [wa, wb] : {std::pair{64, 8}, {8, 64}, {63, 64}, {64, 1}}) {
    for (OpKind k : {OpKind::Div, OpKind::Mod, OpKind::Lt, OpKind::Ge}) {
      int wr = opIsCompare(k) ? 1 : wa;
      Function fn = binaryFn(k, wa, wb, wr);
      Interpreter interp(fn);
      vm::BehavProgram p = vm::compileBehavioral(fn);
      vm::BehavScratch scratch;
      for (std::uint64_t a : cornerValues(wa)) {
        for (std::uint64_t b : cornerValues(wb)) {
          std::map<std::string, std::uint64_t> in = {{"a", a}, {"b", b}};
          ExecResult want = interp.run(in);
          ExecResult got = vm::runBehavProgram(p, scratch, in);
          ASSERT_EQ(want.outputs, got.outputs)
              << opName(k) << " wa=" << wa << " wb=" << wb << " a=" << a
              << " b=" << b;
        }
      }
    }
  }
}

TEST(VmCorners, UnaryAndConstantShifts) {
  for (int w : {1, 63, 64}) {
    for (OpKind k : {OpKind::Not, OpKind::Neg, OpKind::Inc, OpKind::Dec,
                     OpKind::SExt, OpKind::ZExt, OpKind::Trunc}) {
      Function fn("corner");
      PortId pa = fn.addInput("a", w);
      PortId po = fn.addOutput("o", 64);
      BlockId blk = fn.addBlock("entry");
      fn.setEntry(blk);
      ValueId va = fn.emitRead(blk, pa);
      ValueId r = fn.emitUnary(blk, k, va, 64);
      fn.emitWrite(blk, po, r);
      fn.setReturn(blk);
      Interpreter interp(fn);
      vm::BehavProgram p = vm::compileBehavioral(fn);
      vm::BehavScratch scratch;
      for (std::uint64_t a : cornerValues(w)) {
        std::map<std::string, std::uint64_t> in = {{"a", a}};
        ASSERT_EQ(interp.run(in).outputs,
                  vm::runBehavProgram(p, scratch, in).outputs)
            << opName(k) << " w=" << w << " a=" << a;
      }
    }
    // Constant shifts, including amounts >= the word width (defined as
    // shift-out-everything; SarConst clamps to 63).
    for (OpKind k : {OpKind::ShlConst, OpKind::ShrConst, OpKind::SarConst}) {
      for (std::int64_t imm : {0L, 1L, (long)w - 1, 63L, 64L, 100L}) {
        Function fn("corner");
        PortId pa = fn.addInput("a", w);
        PortId po = fn.addOutput("o", w);
        BlockId blk = fn.addBlock("entry");
        fn.setEntry(blk);
        ValueId va = fn.emitRead(blk, pa);
        ValueId r = fn.emitUnary(blk, k, va, w, imm);
        fn.emitWrite(blk, po, r);
        fn.setReturn(blk);
        Interpreter interp(fn);
        vm::BehavProgram p = vm::compileBehavioral(fn);
        vm::BehavScratch scratch;
        for (std::uint64_t a : cornerValues(w)) {
          std::map<std::string, std::uint64_t> in = {{"a", a}};
          ASSERT_EQ(interp.run(in).outputs,
                    vm::runBehavProgram(p, scratch, in).outputs)
              << opName(k) << " w=" << w << " imm=" << imm << " a=" << a;
        }
      }
    }
  }
}

// ------------------------------------------------------- RTL differential

SynthesisOptions pointOptions(SchedulerKind sched, StateEncoding enc,
                              bool multicycle) {
  SynthesisOptions so;
  so.scheduler = sched;
  so.encoding = enc;
  so.resources = ResourceLimits::universalSet(2);
  so.latencies =
      multicycle ? OpLatencyModel::multiCycle() : OpLatencyModel::unit();
  return so;
}

TEST(VmRtl, DifferentialSweepRandomPrograms) {
  const struct {
    SchedulerKind sched;
    StateEncoding enc;
    bool multicycle;
  } points[] = {
      {SchedulerKind::List, StateEncoding::Binary, false},
      {SchedulerKind::Asap, StateEncoding::OneHot, false},
      {SchedulerKind::List, StateEncoding::Binary, true},
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fuzz::GenProgram prog = fuzz::generateProgram(seed);
    std::string source = prog.render();
    for (const auto& pt : points) {
      Synthesizer synth(pointOptions(pt.sched, pt.enc, pt.multicycle));
      SynthesisResult r = synth.synthesizeSource(source);
      RtlSimulator sim(r.design);
      vm::RtlProgram p = vm::compileRtl(r.design);
      vm::RtlScratch scratch;
      for (int trial = 0; trial < 3; ++trial) {
        auto inputs = fuzz::randomInputs(prog.inputNames(), seed, trial);
        std::vector<CycleLog> wantLog, gotLog;
        RtlExecResult want = sim.run(inputs, 1000000, logObserver(wantLog));
        RtlExecResult got =
            vm::runRtlProgram(p, scratch, inputs, 1000000,
                              logObserver(gotLog));
        std::ostringstream ctx;
        ctx << "seed " << seed << " mc=" << pt.multicycle << " trial "
            << trial;
        EXPECT_EQ(want.outputs, got.outputs) << ctx.str();
        EXPECT_EQ(want.cycles, got.cycles) << ctx.str();
        EXPECT_EQ(want.finished, got.finished) << ctx.str();
        ASSERT_EQ(wantLog.size(), gotLog.size()) << ctx.str();
        for (std::size_t i = 0; i < wantLog.size(); ++i)
          ASSERT_TRUE(wantLog[i] == gotLog[i])
              << ctx.str() << " cycle " << i;
      }
    }
  }
}

TEST(VmRtl, BuiltinsBitIdentical) {
  for (const auto& d : designs::all()) {
    for (bool multicycle : {false, true}) {
      Synthesizer synth(pointOptions(SchedulerKind::List,
                                     StateEncoding::Binary, multicycle));
      SynthesisResult r = synth.synthesizeSource(d.source);
      RtlSimulator sim(r.design);
      vm::RtlProgram p = vm::compileRtl(r.design);
      vm::RtlScratch scratch;
      std::vector<CycleLog> wantLog, gotLog;
      RtlExecResult want =
          sim.run(d.sampleInputs, 1000000, logObserver(wantLog));
      RtlExecResult got = vm::runRtlProgram(p, scratch, d.sampleInputs,
                                            1000000, logObserver(gotLog));
      std::string ctx = std::string(d.name) + " mc=" +
                        std::to_string(multicycle);
      EXPECT_EQ(want.outputs, got.outputs) << ctx;
      EXPECT_EQ(want.cycles, got.cycles) << ctx;
      EXPECT_TRUE(got.finished) << ctx;
      ASSERT_EQ(wantLog.size(), gotLog.size()) << ctx;
      for (std::size_t i = 0; i < wantLog.size(); ++i)
        ASSERT_TRUE(wantLog[i] == gotLog[i]) << ctx << " cycle " << i;
    }
  }
}

TEST(VmRtl, MaxCyclesMatchesSimulator) {
  // gcd with inputs that take many cycles: cap below completion and
  // compare the truncated runs.
  Synthesizer synth(
      pointOptions(SchedulerKind::List, StateEncoding::Binary, false));
  SynthesisResult r = synth.synthesizeSource(designs::gcdSource());
  std::map<std::string, std::uint64_t> in = {{"a0", 1071}, {"b0", 462}};
  RtlSimulator sim(r.design);
  vm::RtlProgram p = vm::compileRtl(r.design);
  vm::RtlScratch scratch;
  for (long cap : {0L, 1L, 5L, 17L}) {
    RtlExecResult want = sim.run(in, cap);
    RtlExecResult got = vm::runRtlProgram(p, scratch, in, cap);
    EXPECT_EQ(want.outputs, got.outputs) << "cap " << cap;
    EXPECT_EQ(want.cycles, got.cycles) << "cap " << cap;
    EXPECT_EQ(want.finished, got.finished) << "cap " << cap;
  }
}

// ------------------------------------------------------------ VCD identity

TEST(VmRtl, VcdByteIdentical) {
  Synthesizer synth(
      pointOptions(SchedulerKind::List, StateEncoding::Binary, false));
  SynthesisResult r = synth.synthesizeSource(designs::sqrtSource());
  std::map<std::string, std::uint64_t> in = {{"x", 3000}};

  SimTraceRecorder recInterp(r.design);
  recInterp.begin(in);
  RtlExecResult want =
      RtlSimulator(r.design).run(in, 1000000, recInterp.observer());
  recInterp.finish();

  SimTraceRecorder recVm(r.design);
  recVm.begin(in);
  vm::RtlSim engine(r.design);  // default engine: Vm
  RtlExecResult got = engine.run(in, 1000000, recVm.observer());
  recVm.finish();

  EXPECT_EQ(want.outputs, got.outputs);
  EXPECT_EQ(recInterp.vcd().render(), recVm.vcd().render());
  EXPECT_EQ(recInterp.coverage().visitedStates,
            recVm.coverage().visitedStates);
  EXPECT_EQ(recInterp.coverage().visitedTransitions,
            recVm.coverage().visitedTransitions);
  EXPECT_EQ(recInterp.fuUtilization(), recVm.fuUtilization());
}

// ---------------------------------------------------------- compile cache

TEST(VmEngine, CompilesOncePerEngine) {
  Synthesizer synth(
      pointOptions(SchedulerKind::List, StateEncoding::Binary, false));
  SynthesisResult r = synth.synthesizeSource(designs::sqrtSource());
  auto& compiles = obs::MetricsRegistry::global().counter("vm.compiles");

  std::uint64_t before = compiles.value();
  vm::RtlSim engine(r.design);
  EXPECT_EQ(compiles.value(), before + 1);
  for (int i = 0; i < 5; ++i) {
    auto res = engine.run({{"x", (std::uint64_t)(1000 + i)}});
    EXPECT_TRUE(res.finished);
  }
  EXPECT_EQ(compiles.value(), before + 1) << "runs must not recompile";

  Function fn = compileBdlOrThrow(designs::gcdSource());
  before = compiles.value();
  vm::BehavSim behav(fn);
  EXPECT_EQ(compiles.value(), before + 1);
  for (int i = 0; i < 5; ++i)
    (void)behav.run({{"a0", 12u + (std::uint64_t)i}, {"b0", 18}});
  EXPECT_EQ(compiles.value(), before + 1);

  // The interpreter engine never compiles.
  vm::EngineOptions interp;
  interp.kind = vm::EngineKind::Interp;
  before = compiles.value();
  vm::BehavSim behavInterp(fn, interp);
  (void)behavInterp.run({{"a0", 12}, {"b0", 18}});
  EXPECT_EQ(compiles.value(), before);
}

// ------------------------------------------------------------- engine modes

TEST(VmEngine, FullCrossCheckRunsCleanOnBuiltins) {
  vm::EngineOptions both;
  both.crossCheck = 1;  // every run re-checked on the interpreter
  for (const auto& d : designs::all()) {
    Function fn = compileBdlOrThrow(d.source);
    vm::BehavSim behav(fn, both);
    ExecResult want = Interpreter(fn).run(d.sampleInputs);
    ExecResult got = behav.run(d.sampleInputs);  // throws on divergence
    EXPECT_EQ(want.outputs, got.outputs) << d.name;

    Synthesizer synth(
        pointOptions(SchedulerKind::List, StateEncoding::Binary, false));
    SynthesisResult r = synth.synthesizeSource(d.source);
    vm::RtlSim sim(r.design, both);
    RtlExecResult rr = sim.run(d.sampleInputs);  // throws on divergence
    EXPECT_EQ(rr.outputs, want.outputs) << d.name;
  }
}

TEST(VmEngine, CrossCheckSamplingIsDeterministic) {
  Function fn = compileBdlOrThrow(designs::gcdSource());
  auto& checks = obs::MetricsRegistry::global().counter("vm.cross_checks");

  auto countChecks = [&](double rate, std::uint64_t seed) {
    vm::EngineOptions opts;
    opts.crossCheck = rate;
    opts.seed = seed;
    vm::BehavSim engine(fn, opts);
    std::uint64_t before = checks.value();
    for (int i = 0; i < 200; ++i)
      (void)engine.run({{"a0", (std::uint64_t)i}, {"b0", 18}});
    return checks.value() - before;
  };

  EXPECT_EQ(countChecks(0.0, 7), 0u);
  EXPECT_EQ(countChecks(1.0, 7), 200u);
  std::uint64_t sampled = countChecks(0.25, 7);
  EXPECT_GT(sampled, 20u);
  EXPECT_LT(sampled, 100u);
  // Same seed, same draws.
  EXPECT_EQ(countChecks(0.25, 7), sampled);
}

}  // namespace
}  // namespace mphls
