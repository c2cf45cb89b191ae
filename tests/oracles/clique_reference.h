// The original Tseng–Siewiorek clique partitioner (Section 3.2.2, Fig. 7):
// super-node adjacency in nested `vector<bool>`, and every merge rescans
// every live pair and counts its common neighbours from scratch, O(n⁴).
// It is the oracle the bitset partitioner (alloc/clique.h) is tested
// against: both must return the same cover (same `group`, same `count`)
// on every graph, and the speed tests time one against the other.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/clique.h"
#include "common/interval.h"

namespace mphls {

[[nodiscard]] CliqueCover cliquePartitionReference(const CompatGraph& g);

/// The register compatibility graph as the clique register allocator
/// builds it: an edge when two lifetimes do not overlap.
[[nodiscard]] CompatGraph intervalGraph(const std::vector<LiveInterval>& live);

/// `n` seeded lifetimes: births over a horizon of about n/4 steps, lengths
/// up to half of it, and one in eight empty (an unused value, which
/// conflicts with nothing).
[[nodiscard]] std::vector<LiveInterval> randomLifetimes(std::size_t n,
                                                        std::uint64_t seed);

}  // namespace mphls
