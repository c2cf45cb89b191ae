// Tests for the src/check/ static verification subsystem: every analyzer is
// exercised once on a known-good design (must be clean) and once on a
// hand-corrupted artifact (must fire with the expected check id). The
// Verilog linter negatives read the hand-corrupted fixtures under
// tests/fixtures/.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>

#include "check/check.h"
#include "core/designs.h"
#include "core/synthesizer.h"
#include "rtl/verilog.h"

namespace mphls {
namespace {

SynthesisOptions baseOptions() {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(2);
  return opts;
}

SynthesisResult synthesizeDesign(const char* source,
                                 SynthesisOptions opts = baseOptions()) {
  Synthesizer synth(opts);
  return synth.synthesizeSource(source);
}

CheckOptions checkOptionsFor(const SynthesisOptions& opts) {
  CheckOptions copts;
  copts.resources = opts.resources;
  copts.latencies = opts.latencies;
  return copts;
}

std::string fixture(const std::string& name) {
  std::ifstream in(std::string(MPHLS_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- positive: every built-in design is check-clean end to end -------------

TEST(CheckClean, AllDesignsPassEveryAnalyzer) {
  for (const auto& d : designs::all()) {
    SynthesisOptions opts = baseOptions();
    SynthesisResult result = synthesizeDesign(d.source, opts);
    CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
    EXPECT_TRUE(report.clean())
        << d.name << ":\n" << report.render();
  }
}

TEST(CheckClean, MulticycleDesignsPassStageAnalyzers) {
  SynthesisOptions opts = baseOptions();
  opts.latencies = OpLatencyModel::multiCycle();
  for (const auto& d : designs::all()) {
    SynthesisResult result = synthesizeDesign(d.source, opts);
    CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
    EXPECT_TRUE(report.clean())
        << d.name << ":\n" << report.render();
  }
}

// --- schedule legality -----------------------------------------------------

TEST(CheckSchedule, DetectsDependenceViolation) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::sqrtSource(), opts);
  // Pull an op scheduled after step 0 down to step 0: with ASAP-style
  // placement an op sits late only because a dependence holds it there.
  bool corrupted = false;
  for (auto& bs : result.design.sched.blocks) {
    for (int& s : bs.step) {
      if (s > 0) {
        s = 0;
        corrupted = true;
        break;
      }
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.has("sched.dep-order") ||
              report.has("sched.resource-limit"))
      << report.render();
}

TEST(CheckSchedule, DetectsResourceOveruse) {
  // A schedule produced under 2 universal units cannot satisfy a 1-unit
  // limit (sqrt has parallel ops at its widest step).
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::sqrtSource(), opts);
  CheckOptions copts = checkOptionsFor(opts);
  copts.resources = ResourceLimits::universalSet(1);
  CheckReport report = checkDesign(result.design, copts);
  EXPECT_TRUE(report.has("sched.resource-limit")) << report.render();
}

// --- binding consistency ---------------------------------------------------

TEST(CheckBinding, DetectsRegisterLifetimeOverlap) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::diffeqSource(), opts);
  // Force two storage items with overlapping lifetimes onto one register.
  auto& lt = result.design.lifetimes;
  auto& regs = result.design.regs;
  bool corrupted = false;
  for (std::size_t i = 0; i < lt.items.size() && !corrupted; ++i) {
    if (lt.items[i].live.empty()) continue;
    for (std::size_t j = i + 1; j < lt.items.size(); ++j) {
      if (lt.items[j].live.empty()) continue;
      if (lt.items[i].live.overlaps(lt.items[j].live) &&
          regs.regOfItem[i] != regs.regOfItem[j]) {
        regs.regOfItem[j] = regs.regOfItem[i];
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_TRUE(report.has("bind.reg-overlap")) << report.render();
}

TEST(CheckBinding, DetectsUnboundOperation) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::sqrtSource(), opts);
  // Strip the functional unit off the first bound op.
  bool corrupted = false;
  for (auto& blockFus : result.design.binding.fuOfOp) {
    for (int& f : blockFus) {
      if (f >= 0) {
        f = -1;
        corrupted = true;
        break;
      }
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_TRUE(report.has("bind.fu-unbound")) << report.render();
}

// --- controller completeness -----------------------------------------------

TEST(CheckController, DetectsMissingAction) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::sqrtSource(), opts);
  // Drop one register latch the datapath requires.
  bool corrupted = false;
  for (auto& st : result.design.ctrl.states) {
    if (!st.regActions.empty()) {
      st.regActions.pop_back();
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_TRUE(report.has("ctrl.action-missing")) << report.render();
}

TEST(CheckController, DetectsSpuriousAction) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::gcdSource(), opts);
  // Duplicate a latch into a state that does not schedule it.
  auto& states = result.design.ctrl.states;
  bool corrupted = false;
  for (std::size_t i = 0; i < states.size() && !corrupted; ++i) {
    if (states[i].regActions.empty()) continue;
    for (std::size_t j = 0; j < states.size(); ++j) {
      if (j == i || states[j].halt) continue;
      states[j].regActions.push_back(states[i].regActions.front());
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_TRUE(report.has("ctrl.action-extra") ||
              report.has("ctrl.action-missing"))
      << report.render();
}

// --- one gate per invariant ------------------------------------------------
//
// Every violation the pipeline's former inline validators rejected, made by
// corrupting a synthesized design the same way, must be caught by the
// stage-exit analyzer with a precise check id. The analyzers run in stage
// order and stop at the first stage with an error, as the synthesizer does.

struct Corruption {
  const char* what;  ///< the violation
  const char* source;
  /// Corrupt the design (or the limits the schedule is checked against);
  /// false when the design offers no site.
  std::function<bool(RtlDesign&, ResourceLimits&)> corrupt;
  const char* id;  ///< the check id that must fire
};

CheckReport stageExitReport(const RtlDesign& d, const ResourceLimits& limits) {
  const OpLatencyModel unit = OpLatencyModel::unit();
  CheckReport rep;
  checkSchedule(d.fn, d.sched, limits, unit, rep);
  if (!rep.clean()) return rep;
  checkBinding(d.fn, d.sched, d.lifetimes, d.regs, d.binding, d.ic, d.lib,
               unit, rep);
  if (!rep.clean()) return rep;
  checkController(d.fn, d.sched, d.ctrl, d.ic, d.binding, unit, rep);
  return rep;
}

/// First (block, op index) bound to a unit, or whose binding is -1 when
/// `bound` is false.
bool findOp(const RtlDesign& d, bool bound, std::size_t& b, std::size_t& i) {
  for (b = 0; b < d.binding.fuOfOp.size(); ++b)
    for (i = 0; i < d.binding.fuOfOp[b].size(); ++i)
      if ((d.binding.fuOfOp[b][i] >= 0) == bound) return true;
  return false;
}

/// First live storage item.
int liveItem(const RtlDesign& d) {
  for (std::size_t i = 0; i < d.lifetimes.items.size(); ++i)
    if (!d.lifetimes.items[i].live.empty()) return (int)i;
  return -1;
}

/// First state matching `pred`.
CtrlState* stateWhere(RtlDesign& d,
                      const std::function<bool(const CtrlState&)>& pred) {
  for (CtrlState& st : d.ctrl.states)
    if (!st.halt && pred(st)) return &st;
  return nullptr;
}

std::vector<Corruption> corruptions() {
  const char* sqrt = designs::sqrtSource();
  using L = ResourceLimits;
  return {
      // Schedule legality.
      {"schedule misses a block", sqrt,
       [](RtlDesign& d, L&) {
         d.sched.blocks.pop_back();
         return true;
       },
       "sched.block-count"},
      {"block schedule misses an op", sqrt,
       [](RtlDesign& d, L&) {
         d.sched.blocks[0].step.pop_back();
         return true;
       },
       "sched.op-count"},
      {"op step out of range", sqrt,
       [](RtlDesign& d, L&) {
         d.sched.blocks[0].step[0] = d.sched.blocks[0].numSteps + 3;
         return true;
       },
       "sched.step-range"},
      {"dependence separation violated", sqrt,
       [](RtlDesign& d, L&) {
         for (BlockSchedule& bs : d.sched.blocks)
           if (bs.numSteps > 1) {
             for (int& s : bs.step) s = 0;
             return true;
           }
         return false;
       },
       "sched.dep-order"},
      {"universal units over the limit", sqrt,
       [](RtlDesign&, L& l) {
         l = L::universalSet(1);
         return true;
       },
       "sched.resource-limit"},
      {"moves over an explicit Move limit", sqrt,
       [](RtlDesign&, L& l) {
         l.perClass[FuClass::Move] = 0;
         return true;
       },
       "sched.resource-limit"},
      {"class units over the limit", sqrt,
       [](RtlDesign&, L& l) {
         l = L::withClasses({{FuClass::Adder, 0}});
         return true;
       },
       "sched.resource-limit"},
      // Register assignment.
      {"assignment misses an item", sqrt,
       [](RtlDesign& d, L&) {
         d.regs.regOfItem.pop_back();
         return true;
       },
       "bind.reg-count"},
      {"live item has no register", sqrt,
       [](RtlDesign& d, L&) {
         const int i = liveItem(d);
         if (i < 0) return false;
         d.regs.regOfItem[(std::size_t)i] = d.regs.numRegs;
         return true;
       },
       "bind.reg-range"},
      {"register narrower than its item", sqrt,
       [](RtlDesign& d, L&) {
         const int i = liveItem(d);
         if (i < 0) return false;
         d.regs.regWidth[(std::size_t)d.regs.regOfItem[(std::size_t)i]] = 0;
         return true;
       },
       "bind.reg-width"},
      {"overlapping lifetimes share a register", designs::diffeqSource(),
       [](RtlDesign& d, L&) {
         const auto& items = d.lifetimes.items;
         for (std::size_t i = 0; i < items.size(); ++i)
           for (std::size_t j = i + 1; j < items.size(); ++j)
             if (!items[i].live.empty() && !items[j].live.empty() &&
                 items[i].live.overlaps(items[j].live) &&
                 d.regs.regOfItem[i] != d.regs.regOfItem[j]) {
               d.regs.regOfItem[j] = d.regs.regOfItem[i];
               return true;
             }
         return false;
       },
       "bind.reg-overlap"},
      // Functional-unit binding.
      {"op needing no unit is bound to one", sqrt,
       [](RtlDesign& d, L&) {
         std::size_t b, i;
         if (!findOp(d, false, b, i)) return false;
         d.binding.fuOfOp[b][i] = 0;
         return true;
       },
       "bind.fu-spurious"},
      {"op has no unit", sqrt,
       [](RtlDesign& d, L&) {
         std::size_t b, i;
         if (!findOp(d, true, b, i)) return false;
         d.binding.fuOfOp[b][i] = -1;
         return true;
       },
       "bind.fu-unbound"},
      {"op bound past the last unit", sqrt,
       [](RtlDesign& d, L&) {
         std::size_t b, i;
         if (!findOp(d, true, b, i)) return false;
         d.binding.fuOfOp[b][i] = d.binding.numFus();
         return true;
       },
       "bind.fu-range"},
      {"unit does not perform the op", sqrt,
       [](RtlDesign& d, L&) {
         std::size_t b, i;
         if (!findOp(d, true, b, i)) return false;
         int& f = d.binding.fuOfOp[b][i];
         const OpKind k = d.binding.fus[(std::size_t)f].kinds.front();
         for (int g = 0; g < d.binding.numFus(); ++g)
           if (!d.binding.fus[(std::size_t)g].performs(k)) {
             f = g;
             return true;
           }
         return false;
       },
       "bind.fu-op-support"},
      {"unit's component does not support the op", sqrt,
       [](RtlDesign& d, L&) {
         FuInstance& fu = d.binding.fus.front();
         const auto& comps = d.lib.components();
         for (std::size_t c = 0; c < comps.size(); ++c)
           if (!comps[c].supports(fu.kinds.front())) {
             fu.comp = CompId(c);
             return true;
           }
         return false;
       },
       "bind.fu-comp-support"},
      {"unit double-booked in one step", sqrt,
       [](RtlDesign& d, L&) {
         for (const Block& blk : d.fn.blocks()) {
           auto& fus = d.binding.fuOfOp[blk.id.index()];
           const auto& step = d.sched.of(blk.id).step;
           for (std::size_t i = 0; i < fus.size(); ++i)
             for (std::size_t j = i + 1; j < fus.size(); ++j)
               if (fus[i] >= 0 && fus[j] >= 0 && fus[i] != fus[j] &&
                   step[i] == step[j]) {
                 fus[j] = fus[i];
                 return true;
               }
         }
         return false;
       },
       "bind.fu-conflict"},
      // Interconnect.
      {"transfer source missing from its mux", sqrt,
       [](RtlDesign& d, L&) {
         for (const Transfer& t : d.ic.transfers)
           if (t.destKind == Transfer::DestKind::Reg) {
             d.ic.regInput[(std::size_t)t.destId].sources.clear();
             return true;
           }
         return false;
       },
       "bind.mux-missing"},
      {"transfer on no bus", sqrt,
       [](RtlDesign& d, L&) {
         d.ic.busOfTransfer.front() = d.ic.numBuses;
         return true;
       },
       "bind.bus-range"},
      {"bus carries two values in one step", sqrt,
       [](RtlDesign& d, L&) {
         const auto& ts = d.ic.transfers;
         for (std::size_t i = 0; i < ts.size(); ++i)
           for (std::size_t j = i + 1; j < ts.size(); ++j)
             if (ts[i].step == ts[j].step && !(ts[i].src == ts[j].src)) {
               d.ic.busOfTransfer[j] = d.ic.busOfTransfer[i];
               return true;
             }
         return false;
       },
       "bind.bus-conflict"},
      // Controller.
      {"initial state out of range", sqrt,
       [](RtlDesign& d, L&) {
         d.ctrl.initial = StateId::invalid();
         return true;
       },
       "ctrl.transition-range"},
      {"conditional target out of range", sqrt,
       [](RtlDesign& d, L&) {
         CtrlState* st =
             stateWhere(d, [](const CtrlState& s) { return s.conditional; });
         if (!st) return false;
         st->nextTaken = StateId::invalid();
         return true;
       },
       "ctrl.transition-range"},
      {"condition names a unit past the last", sqrt,
       [](RtlDesign& d, L&) {
         CtrlState* st =
             stateWhere(d, [](const CtrlState& s) { return s.conditional; });
         if (!st) return false;
         st->cond.kind = Source::Kind::Fu;
         st->cond.id = d.binding.numFus();
         return true;
       },
       "ctrl.cond-source"},
      {"state has no successor", sqrt,
       [](RtlDesign& d, L&) {
         CtrlState* st =
             stateWhere(d, [](const CtrlState& s) { return !s.conditional; });
         if (!st) return false;
         st->next = StateId::invalid();
         return true;
       },
       "ctrl.transition-range"},
      {"FU action names a unit past the last", sqrt,
       [](RtlDesign& d, L&) {
         CtrlState* st = stateWhere(
             d, [](const CtrlState& s) { return !s.fuActions.empty(); });
         if (!st) return false;
         st->fuActions.front().fu = d.binding.numFus();
         return true;
       },
       "ctrl.action-range"},
      {"FU action selects a missing mux leg", sqrt,
       [](RtlDesign& d, L&) {
         CtrlState* st = stateWhere(
             d, [](const CtrlState& s) { return !s.fuActions.empty(); });
         if (!st) return false;
         FuAction& a = st->fuActions.front();
         a.muxSel[0] = d.ic.fuInput[(std::size_t)a.fu][0].legs();
         return true;
       },
       "ctrl.action-range"},
      {"register action out of range", sqrt,
       [](RtlDesign& d, L&) {
         CtrlState* st = stateWhere(
             d, [](const CtrlState& s) { return !s.regActions.empty(); });
         if (!st) return false;
         RegAction& a = st->regActions.front();
         a.muxSel = d.ic.regInput[(std::size_t)a.reg].legs();
         return true;
       },
       "ctrl.action-range"},
      {"port action out of range", sqrt,
       [](RtlDesign& d, L&) {
         CtrlState* st = stateWhere(
             d, [](const CtrlState& s) { return !s.portActions.empty(); });
         if (!st) return false;
         st->portActions.front().port = (int)d.ic.outPortInput.size();
         return true;
       },
       "ctrl.action-range"},
  };
}

TEST(CheckStageExit, EveryInvariantHasAnAnalyzer) {
  for (const Corruption& c : corruptions()) {
    SCOPED_TRACE(c.what);
    SynthesisOptions opts = baseOptions();
    SynthesisResult result = synthesizeDesign(c.source, opts);
    ResourceLimits limits = opts.resources;
    ASSERT_TRUE(stageExitReport(result.design, limits).clean());
    ASSERT_TRUE(c.corrupt(result.design, limits)) << "no corruption site";
    CheckReport report = stageExitReport(result.design, limits);
    EXPECT_TRUE(report.has(c.id)) << report.render();
  }
}

TEST(CheckStageExit, FailureCarriesItsReport) {
  CheckReport rep;
  rep.warning("timing.chain-overrun", "state 1", "slow");
  rep.error("bind.bus-conflict", "register r0", "two values");
  rep.error("bind.bus-range", "register r1", "no bus");
  const CheckFailure e("binding consistency", rep);
  EXPECT_EQ(std::string(e.what()),
            "binding consistency check failed (2 finding(s)): error "
            "[bind.bus-conflict] register r0: two values");
  EXPECT_EQ(e.report().firstErrorId(), "bind.bus-conflict");
  EXPECT_EQ(e.report().warningCount(), 1u);
  EXPECT_EQ(CheckReport().firstErrorId(), "");
}

TEST(CheckStageExit, CleanSynthesisCarriesWarnings) {
  // The stage exits' report travels with the result: error-free, with the
  // timing lint's warnings kept for lint to print.
  for (const auto& d : designs::all()) {
    SynthesisResult result = synthesizeDesign(d.source);
    EXPECT_TRUE(result.checks.clean()) << d.name;
    CheckReport lint;
    checkTiming(result.design, result.sta, {}, lint);
    EXPECT_EQ(result.checks.warningCount(), lint.warningCount()) << d.name;
  }
}

// --- Verilog netlist lint --------------------------------------------------

TEST(LintVerilog, EmittedNetlistsHaveNoErrors) {
  for (const auto& d : designs::all()) {
    SynthesisResult result = synthesizeDesign(d.source);
    CheckReport report;
    lintVerilog(emitVerilog(result.design), report);
    EXPECT_TRUE(report.clean()) << d.name << ":\n" << report.render();
  }
}

TEST(LintVerilog, DetectsUndrivenNet) {
  CheckReport report;
  lintVerilog(fixture("lint_undriven.v"), report);
  EXPECT_TRUE(report.has("lint.undriven")) << report.render();
}

TEST(LintVerilog, DetectsMultiplyDrivenNet) {
  CheckReport report;
  lintVerilog(fixture("lint_multi_driven.v"), report);
  EXPECT_TRUE(report.has("lint.multi-driven")) << report.render();
}

TEST(LintVerilog, DetectsWidthMismatch) {
  CheckReport report;
  lintVerilog(fixture("lint_width_mismatch.v"), report);
  EXPECT_TRUE(report.has("lint.width-mismatch")) << report.render();
}

TEST(LintVerilog, DetectsCombinationalLoop) {
  CheckReport report;
  lintVerilog(fixture("lint_comb_loop.v"), report);
  EXPECT_TRUE(report.has("lint.comb-loop")) << report.render();
}

TEST(LintVerilog, DetectsUndeclaredIdentifier) {
  CheckReport report;
  lintVerilog(fixture("lint_undeclared.v"), report);
  EXPECT_TRUE(report.has("lint.undeclared")) << report.render();
}

TEST(LintVerilog, DetectsUnusedNet) {
  CheckReport report;
  lintVerilog(fixture("lint_unused.v"), report);
  EXPECT_TRUE(report.has("lint.unused")) << report.render();
}

// --- report rendering ------------------------------------------------------

TEST(CheckReport, RendersSeverityIdAndLocation) {
  CheckReport report;
  report.error("sched.dep-order", "block loop op 3 (add)", "broken");
  report.warning("lint.unused", "net orphan", "never read");
  EXPECT_EQ(report.errorCount(), 1u);
  EXPECT_EQ(report.warningCount(), 1u);
  EXPECT_FALSE(report.clean());
  std::string text = report.render();
  EXPECT_NE(text.find("error [sched.dep-order] block loop op 3 (add)"),
            std::string::npos);
  EXPECT_NE(text.find("warning [lint.unused] net orphan"),
            std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);
}

}  // namespace
}  // namespace mphls
