// Interconnect allocation (Section 2 / 3.2): "Communications paths,
// including buses and multiplexers, must be chosen so that the functional
// units and registers are connected as necessary to support the data
// transfers required by the specification and the schedule. The most
// simple type of communication path allocation is based only on
// multiplexers. Buses, which can be seen as distributed multiplexers,
// offer the advantage of requiring less wiring, but they may be slower
// than multiplexers. Depending on the application, a combination of both
// may be the best solution."
//
// Two structures are produced from the same transfer set:
//   - mux-based: one multiplexer per functional-unit input port and per
//     register input, with a leg per distinct source;
//   - bus-based: transfers colored onto shared buses (two transfers may
//     share a bus unless they happen in the same control step with
//     different sources).
#pragma once

#include <array>
#include <vector>

#include "alloc/datapath.h"
#include "alloc/fu_alloc.h"
#include "alloc/lifetime.h"
#include "alloc/reg_alloc.h"
#include "sched/schedule.h"

namespace mphls {

/// One data movement in the datapath at a specific global control step.
struct Transfer {
  Source src;
  enum class DestKind { FuPort, Reg, OutPort } destKind = DestKind::Reg;
  int destId = 0;    ///< fu index / register index / port id
  int destPort = 0;  ///< operand position for FuPort dests
  int step = 0;      ///< global control step
  int width = 0;
};

struct MuxSpec {
  std::vector<Source> sources;  ///< distinct, in first-seen order
  int width = 0;

  [[nodiscard]] int legs() const { return (int)sources.size(); }
  /// Index of `s` in sources, -1 if absent.
  [[nodiscard]] int indexOf(const Source& s) const;
};

/// Per-operation control view of the wiring: which unit executes it and
/// which mux legs route its operands and result. This is exactly the
/// information a controller state must assert (Section 2: "synthesize a
/// controller that will drive the data paths as required by the schedule").
struct OpWiring {
  int fu = -1;                      ///< executing unit (-1: none)
  int fuMuxSel[3] = {-1, -1, -1};   ///< leg index per FU input port
  int destReg = -1;                 ///< register written (result or store)
  int destRegMuxSel = -1;
  int destPort = -1;                ///< output port written
  int destPortMuxSel = -1;
};

struct InterconnectResult {
  /// Mux per functional-unit input port: [fu][port 0..2].
  std::vector<std::array<MuxSpec, 3>> fuInput;
  /// Mux per register input.
  std::vector<MuxSpec> regInput;
  /// Mux per output port (by PortId index; unused entries have 0 legs).
  std::vector<MuxSpec> outPortInput;

  std::vector<Transfer> transfers;

  double muxArea = 0;      ///< total multiplexer area (mux-based style)
  int mux2to1Count = 0;    ///< total 2-to-1 equivalent multiplexers

  /// Bus-based alternative built from the same transfers.
  int numBuses = 0;
  double busArea = 0;
  std::vector<int> busOfTransfer;

  /// Control view: [block][op index] -> wiring.
  std::vector<std::vector<OpWiring>> opWiring;
};

[[nodiscard]] InterconnectResult buildInterconnect(
    const Function& fn, const Schedule& sched, const LifetimeInfo& lifetimes,
    const RegAssignment& regs, const FuBinding& binding, const HwLibrary& lib,
    const OpLatencyModel& latencies = OpLatencyModel::unit());

}  // namespace mphls
