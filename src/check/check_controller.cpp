#include "check/check_controller.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <vector>

namespace mphls {

namespace {

std::string stateWhere(const Controller& ctrl, std::size_t s) {
  std::ostringstream oss;
  oss << "state S" << s;
  if (s < ctrl.numStates() && !ctrl.states[s].halt)
    oss << " (b" << ctrl.states[s].block.get() << " step "
        << ctrl.states[s].step << ")";
  return oss.str();
}

bool inRange(const Controller& ctrl, StateId s) {
  return s.valid() && s.index() < ctrl.numStates();
}

/// The state a control transfer to `b` lands in, skipping zero-step blocks
/// (mirrors buildController's firstStateOf). Invalid on malformed chains.
StateId firstStateOf(const Function& fn, const Schedule& sched,
                     const Controller& ctrl, BlockId b, int depth) {
  if (depth > (int)fn.numBlocks() + 1) return StateId::invalid();
  if (!b.valid() || b.index() >= fn.numBlocks()) return StateId::invalid();
  const BlockSchedule& bs = sched.of(b);
  if (bs.numSteps > 0) return ctrl.stateAt(b, 0);
  const Terminator& t = fn.block(b).term;
  switch (t.kind) {
    case Terminator::Kind::Return:
      return ctrl.haltState;
    case Terminator::Kind::Jump:
      return firstStateOf(fn, sched, ctrl, t.target, depth + 1);
    case Terminator::Kind::Branch:
      return StateId::invalid();  // branch in an empty block is malformed
  }
  return ctrl.haltState;
}

// Sortable/printable keys for the three action families.

std::string fuActionKey(const FuAction& a) {
  std::ostringstream oss;
  oss << "fu" << a.fu << " " << opName(a.kind) << " sel(" << a.muxSel[0]
      << "," << a.muxSel[1] << "," << a.muxSel[2] << ") width " << a.width
      << " cycles " << a.cycles;
  return oss.str();
}

std::string regActionKey(const RegAction& a) {
  std::ostringstream oss;
  oss << "r" << a.reg << " <= leg " << a.muxSel;
  return oss.str();
}

std::string portActionKey(const PortAction& a) {
  std::ostringstream oss;
  oss << "port " << a.port << " <= leg " << a.muxSel;
  return oss.str();
}

/// Diff two multisets of rendered actions; report one finding per missing
/// and per extra element.
void diffActions(const Controller& ctrl, std::size_t stateIdx,
                 std::vector<std::string> expected,
                 std::vector<std::string> actual, std::string_view what,
                 CheckReport& report) {
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  std::vector<std::string> missing, extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  for (const std::string& m : missing) {
    std::ostringstream oss;
    oss << "binding requires " << what << " [" << m
        << "] but the state does not assert it";
    report.error("ctrl.action-missing", stateWhere(ctrl, stateIdx),
                 oss.str());
  }
  for (const std::string& e : extra) {
    std::ostringstream oss;
    oss << "state asserts " << what << " [" << e
        << "] the binding does not require";
    report.error("ctrl.action-extra", stateWhere(ctrl, stateIdx), oss.str());
  }
}

/// Every unit, register, port and mux leg a state drives must exist.
void checkActionRanges(const Controller& ctrl, std::size_t s,
                       const InterconnectResult& ic, const FuBinding& binding,
                       CheckReport& report) {
  const CtrlState& st = ctrl.states[s];
  auto bad = [&](const auto&... parts) {
    std::ostringstream oss;
    oss << "state drives";
    (oss << ... << parts);
    oss << ", which does not exist";
    report.error("ctrl.action-range", stateWhere(ctrl, s), oss.str());
  };
  auto legOk = [](int sel, const MuxSpec& m) {
    return sel >= 0 && sel < m.legs();
  };
  for (const FuAction& a : st.fuActions) {
    if (a.fu < 0 || a.fu >= binding.numFus() ||
        (std::size_t)a.fu >= ic.fuInput.size()) {
      bad(" fu", a.fu);
      continue;
    }
    for (int p = 0; p < 3; ++p)
      if (a.muxSel[p] >= 0 &&
          !legOk(a.muxSel[p], ic.fuInput[(std::size_t)a.fu][(std::size_t)p]))
        bad(" fu", a.fu, " port ", p, " leg ", a.muxSel[p]);
  }
  for (const RegAction& a : st.regActions)
    if (a.reg < 0 || (std::size_t)a.reg >= ic.regInput.size() ||
        !legOk(a.muxSel, ic.regInput[(std::size_t)a.reg]))
      bad(" r", a.reg, " leg ", a.muxSel);
  for (const PortAction& a : st.portActions)
    if (a.port < 0 || (std::size_t)a.port >= ic.outPortInput.size() ||
        !legOk(a.muxSel, ic.outPortInput[(std::size_t)a.port]))
      bad(" port ", a.port, " leg ", a.muxSel);
}

}  // namespace

void checkController(const Function& fn, const Schedule& sched,
                     const Controller& ctrl, const InterconnectResult& ic,
                     const FuBinding& binding,
                     const OpLatencyModel& latencies, CheckReport& report) {
  const std::size_t n = ctrl.numStates();
  if (!inRange(ctrl, ctrl.initial)) {
    report.error("ctrl.transition-range", "controller",
                 "initial state is out of range");
    return;
  }
  if (!inRange(ctrl, ctrl.haltState) ||
      !ctrl.states[ctrl.haltState.index()].halt) {
    report.error("ctrl.transition-range", "controller",
                 "halt state is missing or not marked halting");
    return;
  }

  // --- coverage and transitions ----------------------------------------
  for (const auto& blk : fn.blocks()) {
    const BlockSchedule& bs = sched.of(blk.id);
    for (int s = 0; s < bs.numSteps; ++s) {
      StateId sid = ctrl.stateAt(blk.id, s);
      std::ostringstream where;
      where << "block " << blk.name << " step " << s;
      if (!inRange(ctrl, sid)) {
        report.error("ctrl.step-uncovered", where.str(),
                     "scheduled control step has no FSM state");
        continue;
      }
      const CtrlState& st = ctrl.states[sid.index()];
      if (st.halt || st.block != blk.id || st.step != s) {
        report.error("ctrl.state-binding", stateWhere(ctrl, sid.index()),
                     "state does not belong to " + where.str());
        continue;
      }
      // Expected successor(s).
      if (s + 1 < bs.numSteps) {
        StateId want = ctrl.stateAt(blk.id, s + 1);
        if (st.conditional || !(st.next == want)) {
          report.error("ctrl.transition-target",
                       stateWhere(ctrl, sid.index()),
                       "mid-block state must fall through to the next step");
        }
        continue;
      }
      const Terminator& t = blk.term;
      switch (t.kind) {
        case Terminator::Kind::Return:
          if (st.conditional || !(st.next == ctrl.haltState))
            report.error("ctrl.transition-target",
                         stateWhere(ctrl, sid.index()),
                         "returning block must transition to the halt state");
          break;
        case Terminator::Kind::Jump: {
          StateId want = firstStateOf(fn, sched, ctrl, t.target, 0);
          if (st.conditional || !inRange(ctrl, want) || !(st.next == want))
            report.error("ctrl.transition-target",
                         stateWhere(ctrl, sid.index()),
                         "jump does not land on the target block's first "
                         "state");
          break;
        }
        case Terminator::Kind::Branch: {
          StateId wantTaken = firstStateOf(fn, sched, ctrl, t.target, 0);
          StateId wantNot = firstStateOf(fn, sched, ctrl, t.elseTarget, 0);
          if (!st.conditional || !inRange(ctrl, wantTaken) ||
              !inRange(ctrl, wantNot) || !(st.nextTaken == wantTaken) ||
              !(st.nextNot == wantNot)) {
            report.error("ctrl.transition-target",
                         stateWhere(ctrl, sid.index()),
                         "branch targets do not match the terminator");
          }
          if (st.conditional && st.cond.finalWidth() != 1) {
            std::ostringstream oss;
            oss << "branch condition is " << st.cond.finalWidth()
                << " bits wide";
            report.error("ctrl.cond-width", stateWhere(ctrl, sid.index()),
                         oss.str());
          }
          break;
        }
      }
    }
  }

  // Successor ranges, condition units and action operands for every state
  // (including unmapped ones).
  for (std::size_t s = 0; s < n; ++s) {
    const CtrlState& st = ctrl.states[s];
    if (st.halt) continue;
    if (st.conditional) {
      if (!inRange(ctrl, st.nextTaken) || !inRange(ctrl, st.nextNot))
        report.error("ctrl.transition-range", stateWhere(ctrl, s),
                     "conditional successor out of range");
      if (st.cond.kind == Source::Kind::Fu &&
          (st.cond.id < 0 || st.cond.id >= binding.numFus()))
        report.error("ctrl.cond-source", stateWhere(ctrl, s),
                     "branch condition names a nonexistent unit");
    } else if (!inRange(ctrl, st.next)) {
      report.error("ctrl.transition-range", stateWhere(ctrl, s),
                   "successor out of range");
    }
    checkActionRanges(ctrl, s, ic, binding, report);
  }

  // --- reachability ------------------------------------------------------
  auto successors = [&](std::size_t s) {
    std::vector<std::size_t> out;
    const CtrlState& st = ctrl.states[s];
    if (st.halt) return out;
    if (st.conditional) {
      if (inRange(ctrl, st.nextTaken)) out.push_back(st.nextTaken.index());
      if (inRange(ctrl, st.nextNot)) out.push_back(st.nextNot.index());
    } else if (inRange(ctrl, st.next)) {
      out.push_back(st.next.index());
    }
    return out;
  };

  std::vector<char> reach(n, 0);
  std::deque<std::size_t> work{ctrl.initial.index()};
  reach[ctrl.initial.index()] = 1;
  while (!work.empty()) {
    std::size_t s = work.front();
    work.pop_front();
    for (std::size_t t : successors(s))
      if (!reach[t]) {
        reach[t] = 1;
        work.push_back(t);
      }
  }
  for (std::size_t s = 0; s < n; ++s)
    if (!reach[s])
      report.error("ctrl.unreachable-state", stateWhere(ctrl, s),
                   "state is unreachable from the initial state");

  // Reverse reachability to halt.
  std::vector<std::vector<std::size_t>> preds(n);
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t t : successors(s)) preds[t].push_back(s);
  std::vector<char> live(n, 0);
  work.assign(1, ctrl.haltState.index());
  live[ctrl.haltState.index()] = 1;
  while (!work.empty()) {
    std::size_t s = work.front();
    work.pop_front();
    for (std::size_t p : preds[s])
      if (!live[p]) {
        live[p] = 1;
        work.push_back(p);
      }
  }
  for (std::size_t s = 0; s < n; ++s)
    if (!live[s])
      report.error("ctrl.dead-state", stateWhere(ctrl, s),
                   "state cannot reach the halt state");

  // --- datapath actions --------------------------------------------------
  // Reconstruct the action set each state must assert from the schedule and
  // the interconnect's per-op wiring (the same recipe buildController uses),
  // then require the controller to match it exactly.
  std::vector<std::vector<std::string>> wantFu(n), wantReg(n), wantPort(n);
  bool wiringUsable = ic.opWiring.size() == fn.numBlocks();
  for (const auto& blk : fn.blocks()) {
    if (!wiringUsable) break;
    const BlockSchedule& bs = sched.of(blk.id);
    if (ic.opWiring[blk.id.index()].size() != blk.ops.size() ||
        bs.step.size() != blk.ops.size()) {
      wiringUsable = false;  // other analyzers report the size mismatch
      break;
    }
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const OpWiring& ow = ic.opWiring[blk.id.index()][i];
      if (ow.fu < 0 && ow.destReg < 0 && ow.destPort < 0) continue;
      StateId sid = ctrl.stateAt(blk.id, bs.step[i]);
      if (!inRange(ctrl, sid)) continue;  // reported as step-uncovered
      const Op& o = fn.op(blk.ops[i]);
      int doneStep = bs.step[i];
      if (ow.fu >= 0) {
        FuAction fa;
        fa.fu = ow.fu;
        fa.kind = o.kind;
        fa.width = o.result.valid() ? fn.value(o.result).width : 1;
        fa.cycles = latencies.of(o.kind);
        for (int p = 0; p < 3; ++p) fa.muxSel[p] = ow.fuMuxSel[p];
        wantFu[sid.index()].push_back(fuActionKey(fa));
        doneStep = bs.step[i] + fa.cycles - 1;
      }
      if (ow.destReg >= 0 || ow.destPort >= 0) {
        StateId did = ctrl.stateAt(blk.id, doneStep);
        if (!inRange(ctrl, did)) {
          std::ostringstream where;
          where << "block " << blk.name << " step " << doneStep;
          report.error("ctrl.step-uncovered", where.str(),
                       "operation completes in a step with no FSM state");
          continue;
        }
        if (ow.destReg >= 0)
          wantReg[did.index()].push_back(
              regActionKey({ow.destReg, ow.destRegMuxSel}));
        if (ow.destPort >= 0)
          wantPort[did.index()].push_back(
              portActionKey({ow.destPort, ow.destPortMuxSel}));
      }
    }
  }
  if (wiringUsable) {
    for (std::size_t s = 0; s < n; ++s) {
      const CtrlState& st = ctrl.states[s];
      std::vector<std::string> fuKeys, regKeys, portKeys;
      for (const FuAction& a : st.fuActions) fuKeys.push_back(fuActionKey(a));
      for (const RegAction& a : st.regActions)
        regKeys.push_back(regActionKey(a));
      for (const PortAction& a : st.portActions)
        portKeys.push_back(portActionKey(a));
      diffActions(ctrl, s, wantFu[s], fuKeys, "FU operation", report);
      diffActions(ctrl, s, wantReg[s], regKeys, "register load", report);
      diffActions(ctrl, s, wantPort[s], portKeys, "port write", report);
    }
  }
}

}  // namespace mphls
