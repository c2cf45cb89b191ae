// Cycle-accurate simulation of the synthesized RTL structure.
//
// Simulates exactly what the generated hardware does each clock: the FSM
// state selects mux legs, function codes and register enables; functional
// units compute combinationally from the mux outputs; registers and output
// ports latch on the clock edge; the next state follows the (possibly
// condition-steered) transition. Comparing this against the behavioral
// Interpreter is the paper's "design verification" (Section 4): the RT
// structure provably computes the specified behavior on the tested inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "rtl/design.h"

namespace mphls {

struct RtlExecResult {
  std::map<std::string, std::uint64_t> outputs;  ///< written output ports
  long cycles = 0;
  bool finished = false;  ///< reached the halt state
};

/// Post-edge snapshot of one executed cycle, handed to a SimObserver
/// after registers and output ports have committed their cycle results.
/// `state` is the FSM state index (or, for a microcode-driven simulator,
/// the microprogram address) that drove the cycle; `nextState` is where the
/// sequencer goes on the clock edge. The pointed-to vectors are owned by
/// the simulator and valid only for the duration of the callback.
struct SimCycle {
  long cycle = 0;
  std::uint64_t state = 0;
  std::uint64_t nextState = 0;
  const std::vector<std::uint64_t>* regs = nullptr;
  const std::vector<std::uint64_t>* outs = nullptr;  ///< by port id, all ports
  const std::vector<bool>* fuActive = nullptr;  ///< by fu, busy this cycle
};

/// Per-cycle hook (waveform recording, coverage). Mirrors
/// Interpreter::ValueObserver: an empty function means "not observed" and
/// costs one bool check per cycle.
using SimObserver = std::function<void(const SimCycle&)>;

class RtlSimulator {
 public:
  explicit RtlSimulator(const RtlDesign& design) : d_(design) {}

  /// Run from reset with the given stable input-port values.
  [[nodiscard]] RtlExecResult run(
      const std::map<std::string, std::uint64_t>& inputs,
      long maxCycles = 1000000, const SimObserver& observe = {}) const;

 private:
  const RtlDesign& d_;
};

}  // namespace mphls
