// Stage-boundary analyzer 2: binding consistency.
//
// The contract data-path allocation must establish (Section 3.2): storage
// items with overlapping lifetimes never share a register and every register
// is wide enough for the items mapped onto it; every scheduled slot-occupying
// operation is bound to a functional unit whose instance *and* library
// component can execute it at its width, and no unit executes two operations
// in overlapping control steps; and the interconnect's multiplexers are
// exhaustive (every required transfer has a leg at its destination mux) and
// non-conflicting (no mux is asked for two different sources in one step),
// and the bus-based alternative carries every transfer on an existing bus
// with at most one value per bus per step.
#pragma once

#include "alloc/interconnect.h"
#include "alloc/lifetime.h"
#include "alloc/reg_alloc.h"
#include "check/report.h"
#include "ir/latency.h"
#include "lib/library.h"
#include "sched/schedule.h"

namespace mphls {

// Check ids reported:
//   bind.reg-count        assignment does not cover every storage item
//   bind.reg-range        live item mapped to no / an out-of-range register
//   bind.reg-width        register narrower than an item mapped onto it
//   bind.reg-overlap      two overlapping lifetimes share a register
//   bind.fu-unbound       slot-occupying operation with no functional unit
//   bind.fu-spurious      unit bound to an op that needs none (free/move)
//   bind.fu-range         op bound to an out-of-range unit
//   bind.fu-op-support    unit instance does not perform the op kind
//   bind.fu-comp-support  library component cannot execute the op kind
//   bind.fu-width         unit narrower than the op's result
//   bind.fu-conflict      unit runs two ops in overlapping control steps
//   bind.mux-missing      transfer source missing from its destination mux
//   bind.mux-conflict     mux needs two different sources in the same step
//   bind.bus-range        transfer assigned to no / an out-of-range bus
//   bind.bus-conflict     bus carries two different values in one step

/// Registers: coverage, range, width and lifetime overlap (bind.reg-*).
void checkRegisters(const LifetimeInfo& lifetimes, const RegAssignment& regs,
                    CheckReport& report);

/// Functional units: coverage, support, width and overlap (bind.fu-*).
void checkUnits(const Function& fn, const Schedule& sched,
                const FuBinding& binding, const HwLibrary& lib,
                const OpLatencyModel& latencies, CheckReport& report);

/// Multiplexers and buses (bind.mux-*, bind.bus-*).
void checkMuxes(const InterconnectResult& ic, CheckReport& report);

/// All three.
void checkBinding(const Function& fn, const Schedule& sched,
                  const LifetimeInfo& lifetimes, const RegAssignment& regs,
                  const FuBinding& binding, const InterconnectResult& ic,
                  const HwLibrary& lib, const OpLatencyModel& latencies,
                  CheckReport& report);

}  // namespace mphls
