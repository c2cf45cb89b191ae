// SimEngine: the common simulation interface the fuzzer, the synthesizer's
// verify path and the CLI route through.
//
// An engine wraps one design at one level (behavioral Function or
// synthesized RtlDesign) and owns its compiled program plus reusable run
// state — constructing the engine once per (design, matrix point) is
// exactly the compile cache the fuzz matrix needs. Two modes:
//
//   - Interp: the original tree-walking interpreter, unchanged.
//   - Vm:     the bytecode VM, with a configurable sampling rate that
//             re-runs a fraction of executions on the interpreter and
//             hard-fails (DivergenceError) if any observable differs;
//             rate 1 checks every execution.
//
// The cross-check sampler is deterministic (splitmix64 over the seed and a
// per-engine draw counter), so a campaign checks the same runs at any job
// count. Engines are not thread-safe; use one per worker.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "vm/vm.h"

namespace mphls::vm {

enum class EngineKind { Interp, Vm };

[[nodiscard]] std::string_view engineKindName(EngineKind k);

/// Parse "interp" | "vm"; returns false on anything else.
bool parseEngineKind(const std::string& name, EngineKind& out);

struct EngineOptions {
  EngineKind kind = EngineKind::Vm;
  /// Fraction of VM executions re-run on the interpreter oracle (Vm mode
  /// only). Clamped to [0, 1].
  double crossCheck = 0.02;
  /// Stream seed for the cross-check sampler.
  std::uint64_t seed = 0;
};

/// A VM result disagreed with the interpreter oracle on the same inputs.
/// This is always a VM bug (the interpreters are the spec) and is reported
/// as its own failure kind, never folded into a co-sim mismatch.
class DivergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Behavioral engine: Interpreter-compatible execution of one Function.
class BehavSim {
 public:
  explicit BehavSim(const Function& fn, const EngineOptions& opts = {});

  /// Same contract as Interpreter::run (without the value observer).
  /// Throws DivergenceError when a cross-checked run disagrees.
  [[nodiscard]] ExecResult run(
      const std::map<std::string, std::uint64_t>& inputs,
      long maxBlockExecs = 100000) const;

 private:
  const Function& fn_;
  EngineOptions opts_;
  BehavProgram prog_;
  mutable BehavScratch scratch_;
  mutable std::uint64_t draws_ = 0;
  obs::Counter* runs_ = nullptr;    ///< cached handle (stable for life)
  obs::Counter* checks_ = nullptr;
};

/// RTL engine: RtlSimulator-compatible execution of one RtlDesign.
class RtlSim {
 public:
  explicit RtlSim(const RtlDesign& design, const EngineOptions& opts = {});

  /// Same contract as RtlSimulator::run. The observer (VCD, coverage) is
  /// fed by the primary engine's per-cycle snapshots — natively by the
  /// RTL VM in Vm mode; cross-check re-runs are unobserved.
  [[nodiscard]] RtlExecResult run(
      const std::map<std::string, std::uint64_t>& inputs,
      long maxCycles = 1000000, const SimObserver& observe = {}) const;

 private:
  const RtlDesign& d_;
  EngineOptions opts_;
  RtlProgram prog_;
  mutable RtlScratch scratch_;
  mutable std::uint64_t draws_ = 0;
  obs::Counter* runs_ = nullptr;    ///< cached handle (stable for life)
  obs::Counter* checks_ = nullptr;
};

}  // namespace mphls::vm
