// Transformation pass framework.
//
// Section 2: "it is desirable to do some initial optimization of the
// internal representation. These high-level transformations include such
// compiler-like optimizations as dead code elimination, constant
// propagation, common subexpression elimination, inline expansion of
// procedures and loop unrolling. Local transformations, including those
// that are more specific to hardware, are also used."
//
// Each pass is a small rewriting of a Function that must preserve behavior
// (verified by the equivalence tests in tests/test_opt.cpp). The manager
// runs passes to a fixpoint and re-verifies IR invariants after each run —
// Section 4's observation that "each step in the synthesis process
// preserves the behavior of the initial specification" is checkable.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/cdfg.h"

namespace mphls {

class Pass {
 public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Apply the pass; returns the number of rewrites performed.
  virtual int run(Function& fn) = 0;
};

// Factories for every pass (defined in their own translation units).
[[nodiscard]] std::unique_ptr<Pass> createDcePass();
[[nodiscard]] std::unique_ptr<Pass> createConstFoldPass();
[[nodiscard]] std::unique_ptr<Pass> createForwardingPass();  // store->load
[[nodiscard]] std::unique_ptr<Pass> createCsePass();
[[nodiscard]] std::unique_ptr<Pass> createStrengthPass();
[[nodiscard]] std::unique_ptr<Pass> createAlgebraicPass();
[[nodiscard]] std::unique_ptr<Pass> createUnrollPass(int maxTrip = 64);
[[nodiscard]] std::unique_ptr<Pass> createTreeHeightPass();
/// Analysis-driven width narrowing (narrow.cpp). Not part of the standard
/// pipelines: enabled by SynthesisOptions::narrow / `mphls --narrow`.
[[nodiscard]] std::unique_ptr<Pass> createNarrowWidthsPass();

/// Per-pass outcome of a manager run.
struct PassStats {
  std::string pass;
  int changes = 0;
  int iterations = 0;
};

/// How much high-level transformation runs before scheduling.
enum class OptLevel { None, Standard, Aggressive };

class PassManager {
 public:
  /// Called after each pass application with the pass name, the function
  /// before and after, and the reported change count. Installed by the
  /// translation validator (src/sec/) to prove per-pass equivalence; the
  /// pre-pass snapshot is only cloned while an observer is set.
  using PassObserver = std::function<void(
      std::string_view pass, const Function& before, const Function& after,
      int changes)>;

  PassManager& add(std::unique_ptr<Pass> p) {
    passes_.push_back(std::move(p));
    return *this;
  }

  void setObserver(PassObserver obs) { observer_ = std::move(obs); }

  /// Run all passes round-robin until a full round changes nothing (or
  /// `maxRounds` is hit). Verifies the IR after every pass. Returns stats.
  std::vector<PassStats> run(Function& fn, int maxRounds = 8);

  /// The tutorial's standard cleanup pipeline: forwarding, constant
  /// folding, strength reduction, algebraic simplification, CSE, DCE.
  [[nodiscard]] static PassManager standardPipeline();

  /// Standard pipeline plus loop unrolling and tree-height reduction.
  [[nodiscard]] static PassManager aggressivePipeline(int maxTrip = 64);

  /// The pipeline of `level`: nullopt for OptLevel::None, where no pass
  /// runs (and the IR is not even compacted).
  [[nodiscard]] static std::optional<PassManager> forLevel(OptLevel level);

  /// The analysis-driven width-narrowing pass on its own.
  [[nodiscard]] static PassManager narrowing();

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
  PassObserver observer_;
};

/// The IR a design point starts from (Synthesizer::synthesize and
/// FrontendCache::get): `level`'s pipeline, then with `narrow` the
/// narrowing pass as a second manager (one round-robin manager would
/// interleave the two and change the IR).
void optimize(Function& fn, OptLevel level = OptLevel::Standard,
              bool narrow = false);

/// True when turning a value into free wiring over `v` could let a consumer
/// outlive `v`'s backing register: the free-wiring chain under `v` roots at
/// a LoadVar whose variable is stored again later in `blk`. Any pass that
/// aliases an occupying op's result to wiring over an operand (forwarding,
/// algebraic identities, strength reduction) must refuse the rewrite when
/// this holds — otherwise the use-before-overwrite dependence (deps.cpp)
/// contradicts the store-order chain and the block becomes unschedulable.
[[nodiscard]] bool wiringWouldOutliveStore(const Function& fn,
                                           const Block& blk, ValueId v);

}  // namespace mphls
