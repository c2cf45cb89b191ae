// Waveform + coverage recording for RTL simulation runs.
//
// SimTraceRecorder adapts the RtlSimulator observer hook into three
// artifacts computed from one pass over the cycles:
//   - a VCD waveform (clock, FSM state, registers, ports, per-FU busy
//     bits) viewable in GTKWave,
//   - FSM state/transition coverage against the controller's full state
//     graph,
//   - per-functional-unit utilization (busy cycles / total cycles).
//
// VCD time mapping: cycle i occupies ticks [2i, 2i+2) of the 1ns
// timescale. clk rises at 2i and falls at 2i+1; registers, output ports
// and the FSM state latch their cycle-i results at 2(i+1) — the next
// rising edge — matching the posedge semantics of the emitted Verilog.
// The final VCD values therefore equal the simulator's end state.
//
// State numbering follows the FSM controller (CtrlState indices), so the
// recorder pairs with RtlSimulator and the VM; the microcode simulator
// that the tests keep as an oracle reports microprogram addresses through
// the same observer type but needs no coverage model.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/vcd.h"
#include "rtl/design.h"
#include "rtl/rtlsim.h"

namespace mphls {

/// FSM coverage achieved by one or more recorded runs.
struct FsmCoverage {
  std::size_t totalStates = 0;
  std::size_t visitedStates = 0;
  /// Distinct (from, to) edges in the controller graph: 0 for halt
  /// states, up to 2 for conditional states (1 when both arms agree).
  std::size_t totalTransitions = 0;
  std::size_t visitedTransitions = 0;

  [[nodiscard]] double stateCoverage() const {
    return totalStates ? (double)visitedStates / (double)totalStates : 1.0;
  }
  [[nodiscard]] double transitionCoverage() const {
    return totalTransitions
               ? (double)visitedTransitions / (double)totalTransitions
               : 1.0;
  }
};

class SimTraceRecorder {
 public:
  explicit SimTraceRecorder(const RtlDesign& design);

  /// Dump the reset state at t=0 (clk high, initial FSM state, registers
  /// zero, the given input-port values). Call once, before run().
  void begin(const std::map<std::string, std::uint64_t>& inputs);

  /// The hook to pass as RtlSimulator::run's observer.
  [[nodiscard]] SimObserver observer();

  /// Close the waveform with the final clock edge pair. Call after run().
  void finish();

  [[nodiscard]] const obs::VcdWriter& vcd() const { return vcd_; }
  bool writeVcd(const std::string& path) const { return vcd_.writeFile(path); }

  [[nodiscard]] FsmCoverage coverage() const;
  /// Busy fraction per functional unit (empty before any cycle ran).
  [[nodiscard]] std::vector<double> fuUtilization() const;
  /// Register values after the last recorded cycle.
  [[nodiscard]] const std::vector<std::uint64_t>& finalRegs() const {
    return finalRegs_;
  }
  [[nodiscard]] long cycles() const { return cycles_; }

 private:
  void onCycle(const SimCycle& sc);

  const RtlDesign& d_;
  obs::VcdWriter vcd_;
  int clkW_ = -1;
  int stateW_ = -1;
  std::vector<int> regW_;
  std::vector<int> fuW_;
  std::vector<int> portW_;  ///< by port id; -1 for ports with no wire

  long cycles_ = 0;
  std::vector<std::uint64_t> finalRegs_;
  std::vector<long> fuBusy_;
  std::set<std::uint64_t> visitedStates_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> visitedTransitions_;
};

}  // namespace mphls
