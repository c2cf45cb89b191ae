// Seeded input generators. The program under test only ever sees what
// these produce from the benchmark's --seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class LadderShape { Chain, Wide };

struct LadderDesign {
  std::string name;    ///< e.g. "wide200"
  std::string source;  ///< BDL
};

/// A straight-line design of `statements` assignments over 16-bit values.
///   Chain: every statement consumes the previous result, so the
///          dependence graph is one long path (little parallelism).
///   Wide:  half the statements combine two primary inputs and the other
///          half reduce those results pairwise, so most operations are
///          independent — the shape on which FU compatibility graphs and
///          clique partitioning grow fastest.
/// Operators cycle in a fixed order; operands and constants are drawn
/// from `seed`.
[[nodiscard]] LadderDesign ladderDesign(LadderShape shape, int statements,
                                        std::uint64_t seed);

/// A fresh random program for serve traffic (fuzz::generateProgram with
/// default options), rendered to BDL, plus one seeded input assignment
/// with every value within its port's width.
struct FreshProgram {
  std::string source;
  std::map<std::string, std::uint64_t> inputs;
};
[[nodiscard]] FreshProgram freshProgram(std::uint64_t seed);

/// Derive an independent stream seed from the run seed and a purpose tag.
[[nodiscard]] std::uint64_t subSeed(std::uint64_t seed, std::uint64_t tag);

}  // namespace perfbench
