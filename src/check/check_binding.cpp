#include "check/check_binding.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "ir/deps.h"

namespace mphls {

namespace {

std::string itemWhere(const LifetimeInfo& lt, std::size_t i) {
  std::ostringstream oss;
  oss << "item " << i << " (" << lt.items[i].name << ")";
  return oss.str();
}

std::string opWhere(const Function& fn, const Block& blk, std::size_t i) {
  std::ostringstream oss;
  oss << "block " << blk.name << " op " << i << " ("
      << opName(fn.op(blk.ops[i]).kind) << ")";
  return oss.str();
}

}  // namespace

void checkRegisters(const LifetimeInfo& lt, const RegAssignment& regs,
                    CheckReport& report) {
  if (regs.regOfItem.size() != lt.items.size()) {
    std::ostringstream oss;
    oss << "assignment covers " << regs.regOfItem.size()
        << " items, lifetime analysis produced " << lt.items.size();
    report.error("bind.reg-count", "register assignment", oss.str());
    return;
  }
  for (std::size_t i = 0; i < lt.items.size(); ++i) {
    if (lt.items[i].live.empty()) continue;
    int r = regs.regOfItem[i];
    if (r < 0 || r >= regs.numRegs) {
      std::ostringstream oss;
      oss << "live item mapped to register " << r << " of " << regs.numRegs;
      report.error("bind.reg-range", itemWhere(lt, i), oss.str());
      continue;
    }
    if (regs.regWidth[(std::size_t)r] < lt.items[i].width) {
      std::ostringstream oss;
      oss << "register r" << r << " is " << regs.regWidth[(std::size_t)r]
          << " bits, item needs " << lt.items[i].width;
      report.error("bind.reg-width", itemWhere(lt, i), oss.str());
    }
    for (std::size_t j = i + 1; j < lt.items.size(); ++j) {
      if (regs.regOfItem[j] != r || lt.items[j].live.empty()) continue;
      if (lt.items[i].live.overlaps(lt.items[j].live)) {
        std::ostringstream oss;
        oss << "shares register r" << r << " with " << itemWhere(lt, j)
            << " but lifetimes [" << lt.items[i].live.birth << ", "
            << lt.items[i].live.death << ") and [" << lt.items[j].live.birth
            << ", " << lt.items[j].live.death << ") overlap";
        report.error("bind.reg-overlap", itemWhere(lt, i), oss.str());
      }
    }
  }
}

void checkUnits(const Function& fn, const Schedule& sched,
                const FuBinding& binding, const HwLibrary& lib,
                const OpLatencyModel& latencies, CheckReport& report) {
  for (const auto& blk : fn.blocks()) {
    if (blk.id.index() >= binding.fuOfOp.size() ||
        binding.fuOfOp[blk.id.index()].size() != blk.ops.size()) {
      report.error("bind.fu-unbound", "block " + blk.name,
                   "binding does not cover every op of the block");
      continue;
    }
    BlockDeps deps(fn, blk, latencies);
    const BlockSchedule& bs = sched.of(blk.id);
    // (fu, step) -> first op index seen executing there.
    std::map<std::pair<int, int>, std::size_t> unitBusy;
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      FuClass c = scheduleClassOf(deps, i);
      int f = binding.fuOfOp[blk.id.index()][i];
      if (c == FuClass::None || c == FuClass::Move) {
        if (f >= 0)
          report.error("bind.fu-spurious", opWhere(fn, blk, i),
                       "op needs no functional unit but is bound to fu" +
                           std::to_string(f));
        continue;
      }
      if (f < 0) {
        report.error("bind.fu-unbound", opWhere(fn, blk, i),
                     "slot-occupying op is bound to no functional unit");
        continue;
      }
      if (f >= binding.numFus()) {
        std::ostringstream oss;
        oss << "bound to fu" << f << " but only " << binding.numFus()
            << " units exist";
        report.error("bind.fu-range", opWhere(fn, blk, i), oss.str());
        continue;
      }
      const FuInstance& fu = binding.fus[(std::size_t)f];
      const Op& o = fn.op(blk.ops[i]);
      if (!fu.performs(o.kind)) {
        std::ostringstream oss;
        oss << "fu" << f << " does not perform " << opName(o.kind);
        report.error("bind.fu-op-support", opWhere(fn, blk, i), oss.str());
      } else if (!fu.comp.valid() ||
                 fu.comp.index() >= lib.components().size()) {
        std::ostringstream oss;
        oss << "fu" << f << " is bound to no library component";
        report.error("bind.fu-comp-support", opWhere(fn, blk, i), oss.str());
      } else if (!lib.component(fu.comp).supports(o.kind)) {
        std::ostringstream oss;
        oss << "fu" << f << "'s component " << lib.component(fu.comp).name
            << " cannot execute " << opName(o.kind);
        report.error("bind.fu-comp-support", opWhere(fn, blk, i), oss.str());
      }
      if (o.result.valid() && fu.width < fn.value(o.result).width) {
        std::ostringstream oss;
        oss << "fu" << f << " is " << fu.width << " bits, result needs "
            << fn.value(o.result).width;
        report.error("bind.fu-width", opWhere(fn, blk, i), oss.str());
      }
      if (bs.step.size() != blk.ops.size()) continue;  // sched checker's job
      for (int span = 0; span < latencies.of(o.kind); ++span) {
        auto [it, fresh] = unitBusy.try_emplace({f, bs.step[i] + span}, i);
        if (!fresh && it->second != i) {
          std::ostringstream oss;
          oss << "fu" << f << " also runs op " << it->second << " ("
              << opName(fn.op(blk.ops[it->second]).kind) << ") at step "
              << bs.step[i] + span;
          report.error("bind.fu-conflict", opWhere(fn, blk, i), oss.str());
        }
      }
    }
  }
}

void checkMuxes(const InterconnectResult& ic, CheckReport& report) {
  auto muxOf = [&](const Transfer& t) -> const MuxSpec* {
    switch (t.destKind) {
      case Transfer::DestKind::FuPort:
        if (t.destId < 0 || (std::size_t)t.destId >= ic.fuInput.size() ||
            t.destPort < 0 || t.destPort >= 3)
          return nullptr;
        return &ic.fuInput[(std::size_t)t.destId][(std::size_t)t.destPort];
      case Transfer::DestKind::Reg:
        if (t.destId < 0 || (std::size_t)t.destId >= ic.regInput.size())
          return nullptr;
        return &ic.regInput[(std::size_t)t.destId];
      case Transfer::DestKind::OutPort:
        if (t.destId < 0 || (std::size_t)t.destId >= ic.outPortInput.size())
          return nullptr;
        return &ic.outPortInput[(std::size_t)t.destId];
    }
    return nullptr;
  };
  auto destName = [](const Transfer& t) {
    std::ostringstream oss;
    switch (t.destKind) {
      case Transfer::DestKind::FuPort:
        oss << "fu" << t.destId << " port " << t.destPort;
        break;
      case Transfer::DestKind::Reg: oss << "register r" << t.destId; break;
      case Transfer::DestKind::OutPort: oss << "port " << t.destId; break;
    }
    return oss.str();
  };

  // Exhaustiveness: every transfer's source must be a leg of its dest mux.
  for (const Transfer& t : ic.transfers) {
    const MuxSpec* mux = muxOf(t);
    if (!mux) {
      report.error("bind.mux-missing", destName(t),
                   "transfer destination does not exist");
      continue;
    }
    if (mux->indexOf(t.src) < 0) {
      std::ostringstream oss;
      oss << "source " << t.src.str() << " (step " << t.step
          << ") has no mux leg";
      report.error("bind.mux-missing", destName(t), oss.str());
    }
  }

  // Conflict-freedom: one source per destination mux per control step.
  // Key the destination by (kind, id, port).
  std::map<std::tuple<int, int, int, int>, const Transfer*> seen;
  for (const Transfer& t : ic.transfers) {
    auto key = std::make_tuple((int)t.destKind, t.destId, t.destPort, t.step);
    auto [it, fresh] = seen.try_emplace(key, &t);
    if (!fresh && !(it->second->src == t.src)) {
      std::ostringstream oss;
      oss << "needs both " << it->second->src.str() << " and " << t.src.str()
          << " at step " << t.step;
      report.error("bind.mux-conflict", destName(t), oss.str());
    }
  }

  // Bus-based alternative: every transfer rides an existing bus, and a bus
  // carries one value per control step.
  std::map<std::pair<int, int>, const Transfer*> busAt;
  for (std::size_t i = 0; i < ic.transfers.size(); ++i) {
    const Transfer& t = ic.transfers[i];
    const int bus = i < ic.busOfTransfer.size() ? ic.busOfTransfer[i] : -1;
    if (bus < 0 || bus >= ic.numBuses) {
      std::ostringstream oss;
      oss << "transfer " << i << " (source " << t.src.str() << ", step "
          << t.step << ") is on bus " << bus << " of " << ic.numBuses;
      report.error("bind.bus-range", destName(t), oss.str());
      continue;
    }
    auto [it, fresh] = busAt.try_emplace({bus, t.step}, &t);
    if (!fresh && !(it->second->src == t.src)) {
      std::ostringstream oss;
      oss << "bus " << bus << " carries both " << it->second->src.str()
          << " and " << t.src.str() << " at step " << t.step;
      report.error("bind.bus-conflict", destName(t), oss.str());
    }
  }
}

void checkBinding(const Function& fn, const Schedule& sched,
                  const LifetimeInfo& lifetimes, const RegAssignment& regs,
                  const FuBinding& binding, const InterconnectResult& ic,
                  const HwLibrary& lib, const OpLatencyModel& latencies,
                  CheckReport& report) {
  checkRegisters(lifetimes, regs, report);
  checkUnits(fn, sched, binding, lib, latencies, report);
  checkMuxes(ic, report);
}

}  // namespace mphls
