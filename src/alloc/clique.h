// Clique partitioning (Section 3.2.2, Fig. 7, after Tseng & Siewiorek):
// "creating graphs in which the elements to be assigned to hardware ...
// are represented by nodes, and there is an arc between two nodes if and
// only if the corresponding elements can share the same hardware. The
// problem then becomes one of finding those sets of nodes in the graph all
// of whose members are connected to one another ... If the objective is to
// minimize the number of hardware units, then we would want to find the
// minimal number of cliques that cover the graph."
//
// Finding maximal cliques is NP-hard, "so in practice, greedy heuristics
// are employed" — the heuristic here merges the edge whose endpoints share
// the most common neighbors (Tseng–Siewiorek); an exact branch-and-bound
// cover is provided for small graphs so the heuristic can be audited.
//
// Cost. Adjacency rows are packed 64 nodes to a word. The heuristic
// computes each edge's common-neighbour count once, as the popcount of the
// two rows' AND, and then keeps the counts current across merges instead
// of recounting: counts only fall, and a merge of b into a touches only the
// pairs inside N(a) and N(b) plus a's own edges. Each of the at most n
// merges costs O(n²) word operations in the worst case (a dense graph), so
// the whole partition is O(n³) word operations, where the from-scratch
// recount it replaced was O(n⁴). The counts take one 32-bit word per node
// pair above the diagonal, for the duration of the call.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/diag.h"

namespace mphls {

/// Undirected compatibility graph over n nodes. Row i is a bitset of i's
/// neighbours, packed 64 nodes to a word.
class CompatGraph {
 public:
  explicit CompatGraph(std::size_t n)
      : n_(n), words_((n + 63) / 64), bits_(n * words_) {}

  void addEdge(std::size_t a, std::size_t b) {
    MPHLS_CHECK(a < n_ && b < n_, "compatibility edge (" << a << ", " << b
                                      << ") outside a graph of " << n_
                                      << " nodes");
    if (a == b) return;
    bits_[a * words_ + b / 64] |= std::uint64_t{1} << (b % 64);
    bits_[b * words_ + a / 64] |= std::uint64_t{1} << (a % 64);
  }
  [[nodiscard]] bool compatible(std::size_t a, std::size_t b) const {
    return (bits_[a * words_ + b / 64] >> (b % 64)) & 1;
  }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t edgeCount() const {
    std::size_t bits = 0;
    for (std::uint64_t w : bits_) bits += (std::size_t)std::popcount(w);
    return bits / 2;
  }
  /// Words per adjacency row: ceil(n / 64).
  [[nodiscard]] std::size_t rowWords() const { return words_; }
  /// Neighbours of `a`: bit b of word b / 64 is set when a and b are
  /// compatible.
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t a) const {
    return {bits_.data() + a * words_, words_};
  }

 private:
  std::size_t n_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// A clique cover: `group[i]` is the clique index of node i; `count` the
/// number of cliques.
struct CliqueCover {
  std::vector<std::size_t> group;
  std::size_t count = 0;

  [[nodiscard]] std::vector<std::vector<std::size_t>> cliques() const;
};

/// Tseng–Siewiorek greedy clique partitioning: repeatedly merge the
/// compatible super-node pair (a, b) with the most common neighbours,
/// taking the first such pair in (a, b) ascending order.
[[nodiscard]] CliqueCover cliquePartition(const CompatGraph& g);

/// Exact minimum clique cover by branch and bound (practical to ~20 nodes;
/// node budget guards larger inputs, falling back to the heuristic).
[[nodiscard]] CliqueCover cliquePartitionExact(const CompatGraph& g,
                                               long nodeBudget = 1'000'000);

/// Check that every group of `cover` is a clique of `g`.
[[nodiscard]] bool coverIsValid(const CompatGraph& g, const CliqueCover& c);

}  // namespace mphls
