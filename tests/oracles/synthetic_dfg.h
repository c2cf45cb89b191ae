// Deterministic synthetic dataflow block for scheduler tests: a chain of
// adds, subs and multiplies whose operands are drawn at random from every
// earlier value, so the ASAP/ALAP frames overlap heavily (a near-worst case
// for force-directed scheduling). Unit latency, one block, fixed seed.
#pragma once

#include "ir/cdfg.h"

namespace mphls {

[[nodiscard]] Function syntheticDfg(int numOps);

}  // namespace mphls
