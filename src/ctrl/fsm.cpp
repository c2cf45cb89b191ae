#include "ctrl/fsm.h"

#include <functional>
#include <sstream>

#include "ir/deps.h"

namespace mphls {

StateId Controller::stateAt(BlockId b, int step) const {
  if (b.index() >= stateOf_.size()) return StateId::invalid();
  const auto& v = stateOf_[b.index()];
  if (step < 0 || step >= (int)v.size()) return StateId::invalid();
  return StateId((std::uint32_t)v[(std::size_t)step]);
}

std::string Controller::describe() const {
  std::ostringstream oss;
  for (const CtrlState& s : states) {
    oss << "S" << s.id.get();
    if (s.halt) {
      oss << " [halt]\n";
      continue;
    }
    oss << " (b" << s.block.get() << " step " << s.step << "):";
    for (const auto& fa : s.fuActions) oss << " fu" << fa.fu << "=" << opName(fa.kind);
    for (const auto& ra : s.regActions) oss << " r" << ra.reg << "<=";
    for (const auto& pa : s.portActions) oss << " p" << pa.port << "<=";
    if (s.conditional) {
      oss << " -> " << s.cond.str() << " ? S" << s.nextTaken.get() << " : S"
          << s.nextNot.get();
    } else if (s.next.valid()) {
      oss << " -> S" << s.next.get();
    }
    oss << "\n";
  }
  return oss.str();
}

Controller buildController(const Function& fn, const Schedule& sched,
                           const LifetimeInfo& lt, const RegAssignment& regs,
                           const FuBinding& binding,
                           const InterconnectResult& ic,
                           const OpLatencyModel& latencies) {
  Controller ctrl;
  ctrl.stateOf_.resize(fn.numBlocks());

  // Create states for every (block, step).
  for (const auto& blk : fn.blocks()) {
    const BlockSchedule& bs = sched.of(blk.id);
    auto& map = ctrl.stateOf_[blk.id.index()];
    map.assign((std::size_t)std::max(bs.numSteps, 0), -1);
    for (int s = 0; s < bs.numSteps; ++s) {
      CtrlState st;
      st.id = StateId(ctrl.states.size());
      st.block = blk.id;
      st.step = s;
      map[(std::size_t)s] = (int)st.id.get();
      ctrl.states.push_back(std::move(st));
    }
  }
  // Halt state.
  {
    CtrlState st;
    st.id = StateId(ctrl.states.size());
    st.halt = true;
    st.next = st.id;  // self-loop
    ctrl.haltState = st.id;
    ctrl.states.push_back(std::move(st));
  }

  // Populate datapath actions from the per-op wiring.
  for (const auto& blk : fn.blocks()) {
    const BlockSchedule& bs = sched.of(blk.id);
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const OpWiring& ow = ic.opWiring[blk.id.index()][i];
      if (ow.fu < 0 && ow.destReg < 0 && ow.destPort < 0) continue;
      StateId sid = ctrl.stateAt(blk.id, bs.step[i]);
      MPHLS_CHECK(sid.valid(), "op scheduled outside state range");
      CtrlState& st = ctrl.states[sid.index()];
      const Op& o = fn.op(blk.ops[i]);
      int doneStep = bs.step[i];
      if (ow.fu >= 0) {
        FuAction fa;
        fa.fu = ow.fu;
        fa.kind = o.kind;
        fa.width = o.result.valid() ? fn.value(o.result).width : 1;
        fa.cycles = latencies.of(o.kind);
        for (int p = 0; p < 3; ++p) fa.muxSel[p] = ow.fuMuxSel[p];
        st.fuActions.push_back(fa);
        doneStep = bs.step[i] + fa.cycles - 1;
      }
      // Register/port latches happen at the operation's completion step.
      if (ow.destReg >= 0 || ow.destPort >= 0) {
        StateId did = ctrl.stateAt(blk.id, doneStep);
        MPHLS_CHECK(did.valid(), "completion outside state range");
        CtrlState& dst = ctrl.states[did.index()];
        if (ow.destReg >= 0)
          dst.regActions.push_back({ow.destReg, ow.destRegMuxSel});
        if (ow.destPort >= 0)
          dst.portActions.push_back({ow.destPort, ow.destPortMuxSel});
      }
    }
  }

  // Resolve the first state a control transfer to `b` lands in, skipping
  // blocks that schedule zero steps (e.g. empty join/exit blocks).
  std::function<StateId(BlockId, int)> firstStateOf = [&](BlockId b,
                                                          int depth) {
    MPHLS_CHECK(depth < (int)fn.numBlocks() + 2,
                "empty-block cycle in control flow");
    const BlockSchedule& bs = sched.of(b);
    if (bs.numSteps > 0) return ctrl.stateAt(b, 0);
    const Terminator& t = fn.block(b).term;
    switch (t.kind) {
      case Terminator::Kind::Return:
        return ctrl.haltState;
      case Terminator::Kind::Jump:
        return firstStateOf(t.target, depth + 1);
      case Terminator::Kind::Branch:
        MPHLS_CHECK(false, "branch in empty block");
        return ctrl.haltState;
    }
    return ctrl.haltState;
  };

  // Transitions.
  for (const auto& blk : fn.blocks()) {
    const BlockSchedule& bs = sched.of(blk.id);
    for (int s = 0; s < bs.numSteps; ++s) {
      CtrlState& st = ctrl.states[ctrl.stateAt(blk.id, s).index()];
      if (s + 1 < bs.numSteps) {
        st.next = ctrl.stateAt(blk.id, s + 1);
        continue;
      }
      const Terminator& t = blk.term;
      switch (t.kind) {
        case Terminator::Kind::Return:
          st.next = ctrl.haltState;
          break;
        case Terminator::Kind::Jump:
          st.next = firstStateOf(t.target, 0);
          break;
        case Terminator::Kind::Branch: {
          st.conditional = true;
          Source c = buildSource(fn, lt, regs, t.cond);
          if (c.kind == Source::Kind::Fu && c.id < 0) {
            // Condition computed by an FU in this block: find its unit.
            ValueId root((std::uint32_t)c.imm);
            const Op& def = fn.defOf(root);
            for (std::size_t i = 0; i < blk.ops.size(); ++i) {
              if (blk.ops[i] == def.id) {
                c.id = binding.fuOfOp[blk.id.index()][i];
                c.imm = 0;
                break;
              }
            }
            MPHLS_CHECK(c.id >= 0, "branch condition unit not found");
          }
          st.cond = c;
          st.nextTaken = firstStateOf(t.target, 0);
          st.nextNot = firstStateOf(t.elseTarget, 0);
          break;
        }
      }
    }
  }

  ctrl.initial = firstStateOf(fn.entry(), 0);
  return ctrl;
}

}  // namespace mphls
