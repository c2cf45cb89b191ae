// Differential co-simulation oracle for the fuzzer.
//
// For one BDL program, the runner establishes golden behavior by running
// the behavioral interpreter on the *unoptimized* compile (so optimizer
// bugs are caught, not baked into the oracle), then sweeps a configurable
// synthesis matrix — scheduler × allocator (FU + register method) ×
// controller style (state encoding) × {narrow on/off} × latency model —
// and for every matrix point:
//
//   1. synthesizes the design from the IR FrontendCache holds for the
//      point's (program, top, opt level, narrow) key, so the
//      parse/optimize/narrow cost is paid once per key rather than per
//      point; the synthesizer's stage exits check the schedule, binding,
//      controller and timing (one STA run), and a stage-exit failure is
//      classified by its first finding's check id;
//   2. gates the finished design through the STA oracle (on the carried
//      STA result) and the netlist lint — re-running STA and the stage
//      analyzers only for a design changed after synthesis (an injected
//      schedule/binding bug or a postSynthesis hook); the semantic lints
//      run once per distinct frontend function;
//   3. co-simulates the RTL against the golden outputs on several input
//      patterns (all-zeros, all-ones, seeded random).
//
// Any disagreement — a mismatch, a check or timing finding, a simulator
// that never halts, or an exception out of the pipeline — is recorded as
// a PointFailure naming the exact matrix point, which is what the reducer
// and the corpus replay key on.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/commands.h"
#include "core/synthesizer.h"
#include "vm/sim_engine.h"

namespace mphls::fuzz {

/// One coordinate of the synthesis matrix.
struct MatrixPoint {
  SchedulerKind sched = SchedulerKind::List;
  FuAllocMethod fu = FuAllocMethod::GreedyLocal;
  RegAllocMethod reg = RegAllocMethod::LeftEdge;
  StateEncoding enc = StateEncoding::Binary;
  OptLevel opt = OptLevel::Standard;
  bool narrow = false;
  bool multicycle = false;
  int fus = 2;

  /// Stable human-readable coordinates, e.g.
  /// "sched=list fu=greedy reg=leftedge enc=binary opt=standard narrow=0
  ///  lat=unit fus=2".
  [[nodiscard]] std::string label() const;

  /// Synthesis options for this point. The runner hands the synthesizer
  /// IR that FrontendCache already optimized and narrowed, so `opt` and
  /// `narrow` describe that IR rather than select passes.
  [[nodiscard]] SynthesisOptions toOptions() const;

  /// Whether the schedule is produced under the resource limits (false
  /// for the time-constrained and trivially-serial schedulers).
  [[nodiscard]] bool resourceLimited() const {
    return isResourceLimited(sched);
  }
};

/// An axis-product description of the matrix; points() expands it,
/// skipping invalid combinations (force-directed scheduling requires unit
/// latency).
struct FuzzMatrix {
  std::vector<SchedulerKind> schedulers;
  std::vector<std::pair<FuAllocMethod, RegAllocMethod>> allocators;
  std::vector<StateEncoding> encodings;
  std::vector<OptLevel> optLevels;
  std::vector<bool> narrows;
  std::vector<bool> multicycles;
  std::vector<int> fuLimits;

  /// 2 points: list scheduling, greedy/left-edge, binary, narrow off/on.
  [[nodiscard]] static FuzzMatrix quick();
  /// 24 points: {list, asap, force} × {greedy+leftedge, clique+clique} ×
  /// {binary, onehot} × narrow {off, on}.
  [[nodiscard]] static FuzzMatrix standard();
  /// The whole space: every scheduler, three allocator pairings, all three
  /// encodings, standard+aggressive optimization, narrow off/on, unit and
  /// multicycle latency models.
  [[nodiscard]] static FuzzMatrix full();

  /// Parse "quick" | "standard" | "full"; returns false on anything else.
  static bool parse(const std::string& name, FuzzMatrix& out);

  [[nodiscard]] std::vector<MatrixPoint> points() const;
};

/// What the runner injects — a seeded, deliberate miscompile used to prove
/// the oracles (co-simulation, the static checkers, and the `mphls prove`
/// equivalence engine) detect divergence and to exercise the reducer.
///
///   - MulToAdd mutates the IR handed to the backend: every multiply
///     becomes an add, so any program whose output depends on a product
///     mismatches.
///   - ScheduleShift mutates the finished design: one eligible operation
///     is issued a control step early, so it latches a stale register
///     value (a classic off-by-one scheduler bug).
///   - SwappedBinding mutates the finished design: one non-commutative
///     operation gets its operand wiring swapped (a classic binding bug).
enum class InjectedBug { None, MulToAdd, ScheduleShift, SwappedBinding };

/// Parse "mul" | "sched" | "bind"; returns false on anything else.
bool parseInjectedBug(const std::string& name, InjectedBug& out);

/// The prove gate's form of `bug` (no hooks for InjectedBug::None).
[[nodiscard]] cmd::ProveInjection proveInjection(InjectedBug bug,
                                                 const OpLatencyModel& lat);

/// Rewrite every Mul op into Add; returns the number of ops rewritten.
int injectMulToAdd(Function& fn);

/// Move one operation one control step earlier and rebuild the controller.
/// The site is chosen so the mutated design still executes (its unit is
/// idle in the destination step, no same-step unit-output wiring breaks)
/// but reads at least one operand register before its producer's write
/// commits. Returns 1 when a site was mutated, 0 when none qualifies.
int injectScheduleShift(RtlDesign& d,
                        const OpLatencyModel& lat = OpLatencyModel::unit());

/// Flip the operand wiring of one non-commutative two-operand operation
/// and rebuild the interconnect and controller. Returns 1 when a site was
/// mutated, 0 when none qualifies.
int injectSwappedBinding(RtlDesign& d,
                         const OpLatencyModel& lat = OpLatencyModel::unit());

/// The PointFailure kind of a synthesis stage exit that threw
/// CheckFailure, by its first error's check id: the STA oracle's kinds for
/// the timing ids, "check" for every other analyzer.
[[nodiscard]] std::string_view stageExitKind(std::string_view firstErrorId);

struct PointFailure {
  MatrixPoint point;
  std::string kind;    ///< "compile" | "nonterminating" | "check" |
                       ///< "mismatch" | "rtl-timeout" | "error" |
                       ///< "vm-divergence" | "vm-divergence-behav" |
                       ///< "sta-divergence" | "sta-negative-slack" |
                       ///< "sta-crash"
  std::string detail;
  int trial = -1;      ///< input-pattern index for co-simulation failures

  /// The point's label, or "" for the program-level kinds ("compile",
  /// "nonterminating", "vm-divergence-behav") where `point` is a
  /// meaningless default.
  [[nodiscard]] std::string pointLabel() const {
    if (kind == "compile" || kind == "nonterminating" ||
        kind == "vm-divergence-behav")
      return "";
    return point.label();
  }
};

struct ProgramVerdict {
  std::uint64_t seed = 0;
  bool compiled = false;
  int pointsRun = 0;       ///< points fully synthesized
  long simulations = 0;    ///< co-simulation trials executed
  std::vector<PointFailure> failures;

  [[nodiscard]] bool ok() const { return compiled && failures.empty(); }
  /// The distinct matrix points that failed (reduction re-checks only
  /// these, which keeps the shrink loop cheap and the failure focused).
  [[nodiscard]] std::vector<MatrixPoint> failingPoints() const;
};

struct DiffOptions {
  std::vector<MatrixPoint> points = FuzzMatrix::standard().points();
  int trials = 4;
  /// Stop at the first failing point/trial (used by the reducer, where
  /// only "still fails" matters, not the full failure inventory).
  bool stopAtFirstFailure = false;
  InjectedBug inject = InjectedBug::None;
  /// Test hooks: mutate the optimized IR before the backend (a synthetic
  /// miscompile), or the finished result before checking/simulation (a
  /// synthetic corrupted design).
  std::function<void(Function&, const MatrixPoint&)> preBackend;
  std::function<void(SynthesisResult&, const MatrixPoint&)> postSynthesis;
  std::string top;
  long maxBlockExecs = 100000;
  long maxCycles = 1000000;
  /// Simulation engine selection: the compiled bytecode VM (default, with
  /// a sampled or, at rate 1, total interpreter cross-check) or the
  /// tree-walking interpreters. A VM/interpreter disagreement surfaces as
  /// a "vm-divergence" / "vm-divergence-behav" failure. The engine seed is
  /// mixed with the program seed so sampled cross-checks stay
  /// deterministic per program.
  vm::EngineOptions engine;
};

/// Run the full differential matrix over one program.
[[nodiscard]] ProgramVerdict runSource(const std::string& source,
                                       std::uint64_t seed,
                                       const DiffOptions& options);

}  // namespace mphls::fuzz
