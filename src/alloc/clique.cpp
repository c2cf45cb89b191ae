#include "alloc/clique.h"

#include <algorithm>

#include "common/diag.h"

namespace mphls {

std::vector<std::vector<std::size_t>> CliqueCover::cliques() const {
  std::vector<std::vector<std::size_t>> out(count);
  for (std::size_t i = 0; i < group.size(); ++i) out[group[i]].push_back(i);
  return out;
}

bool coverIsValid(const CompatGraph& g, const CliqueCover& c) {
  if (c.group.size() != g.size()) return false;
  for (std::size_t i = 0; i < g.size(); ++i)
    for (std::size_t j = i + 1; j < g.size(); ++j)
      if (c.group[i] == c.group[j] && !g.compatible(i, j)) return false;
  return true;
}

namespace {

/// Calls `fn(i)` for every set bit i of the packed row `w`, ascending.
template <class Fn>
void forEachBit(std::span<const std::uint64_t> w, Fn&& fn) {
  for (std::size_t k = 0; k < w.size(); ++k)
    for (std::uint64_t bits = w[k]; bits != 0; bits &= bits - 1)
      fn(k * 64 + (std::size_t)std::countr_zero(bits));
}

std::size_t popcountAnd(std::span<const std::uint64_t> x,
                        std::span<const std::uint64_t> y) {
  std::size_t c = 0;
  for (std::size_t k = 0; k < x.size(); ++k)
    c += (std::size_t)std::popcount(x[k] & y[k]);
  return c;
}

bool testBit(std::span<const std::uint64_t> w, std::size_t i) {
  return (w[i / 64] >> (i % 64)) & 1;
}

/// Super-node adjacency plus the common-neighbour count of every adjacent
/// super-node pair. Rows hold live super-nodes only, so a pair's count is
/// the popcount of the AND of its rows.
class Partitioner {
 public:
  explicit Partitioner(const CompatGraph& g)
      : n_(g.size()), words_(g.rowWords()), rows_(n_ * words_),
        rowBase_(n_), count_(n_ < 2 ? 0 : n_ * (n_ - 1) / 2),
        parent_(n_), a_(words_) {
    for (std::size_t i = 0; i < n_; ++i) {
      const auto r = g.row(i);
      std::copy(r.begin(), r.end(), row(i).begin());
      // Upper-triangle offset: pair (i, j > i) lives at rowBase_[i] + j
      // (unsigned wrap-around makes row 0's base -1).
      rowBase_[i] = i * n_ - i * (i + 1) / 2 - i - 1;
      parent_[i] = i;
    }
    for (std::size_t i = 0; i < n_; ++i)
      forEachBit(row(i), [&](std::size_t j) {
        if (j > i) count(i, j) = (std::uint32_t)popcountAnd(row(i), row(j));
      });
  }

  CliqueCover run() {
    std::size_t a = 0, b = 0;
    while (pickPair(a, b)) merge(a, b);
    // Surviving super-nodes are numbered in index order; a merged node's
    // parent has a smaller index, so its group is already known.
    CliqueCover cover;
    cover.group.assign(n_, 0);
    for (std::size_t i = 0; i < n_; ++i)
      cover.group[i] =
          parent_[i] == i ? cover.count++ : cover.group[parent_[i]];
    return cover;
  }

 private:
  std::span<std::uint64_t> row(std::size_t i) {
    return {rows_.data() + i * words_, words_};
  }
  std::uint32_t& count(std::size_t i, std::size_t j) {
    return count_[rowBase_[i] + j];
  }

  /// The adjacent pair with the most common neighbours, first in (a, b)
  /// ascending order on ties; false when no edge remains.
  bool pickPair(std::size_t& bestA, std::size_t& bestB) {
    long best = -1;
    for (std::size_t a = 0; a < n_; ++a) {
      // A pair's count is below a's degree, so a row whose degree cannot
      // beat the incumbent is skipped.
      const auto ra = row(a);
      long degree = 0;
      for (std::uint64_t w : ra) degree += std::popcount(w);
      if (degree - 1 <= best) continue;
      forEachBit(ra, [&](std::size_t b) {
        if (b > a && (long)count(a, b) > best) {
          best = count(a, b);
          bestA = a;
          bestB = b;
        }
      });
    }
    return best >= 0;
  }

  /// Merges super-node b into a: a keeps the neighbours both had.
  void merge(std::size_t a, std::size_t b) {
    // Row b stays as it was until it is cleared last; row a is rewritten,
    // so N(a) is kept in a_.
    std::copy(row(a).begin(), row(a).end(), a_.begin());
    const std::span<const std::uint64_t> na(a_), nb = row(b);

    // Pairs inside N(b) lose b as a common neighbour; pairs inside N(a)
    // that are not both in N(b) lose a. No other pair's count moves.
    forEachBit(nb, [&](std::size_t x) {
      if (x == a) return;
      forEachBit(row(x), [&](std::size_t y) {
        if (y > x && y != a && testBit(nb, y)) --count(x, y);
      });
    });
    forEachBit(na, [&](std::size_t x) {
      if (x == b) return;
      const bool xInB = testBit(nb, x);
      forEachBit(row(x), [&](std::size_t y) {
        if (y > x && y != b && testBit(na, y) && !(xInB && testBit(nb, y)))
          --count(x, y);
      });
    });

    // Rewire: a keeps N(a) ∩ N(b); b's neighbours drop b, and the
    // neighbours a lost drop a.
    const std::size_t aw = a / 64, bw = b / 64;
    const std::uint64_t abit = std::uint64_t{1} << (a % 64);
    const std::uint64_t bbit = std::uint64_t{1} << (b % 64);
    for (std::size_t k = 0; k < words_; ++k) row(a)[k] = na[k] & nb[k];
    forEachBit(nb, [&](std::size_t x) { row(x)[bw] &= ~bbit; });
    forEachBit(na, [&](std::size_t x) {
      if (!testBit(row(a), x)) row(x)[aw] &= ~abit;
    });
    std::fill(row(b).begin(), row(b).end(), 0);
    parent_[b] = a;

    // a's remaining pairs are recounted from the new rows.
    forEachBit(row(a), [&](std::size_t y) {
      const auto c = (std::uint32_t)popcountAnd(row(a), row(y));
      if (y > a) count(a, y) = c;
      else count(y, a) = c;
    });
  }

  std::size_t n_, words_;
  std::vector<std::uint64_t> rows_;
  std::vector<std::size_t> rowBase_;
  std::vector<std::uint32_t> count_;
  std::vector<std::size_t> parent_;  ///< the super-node i was merged into
  std::vector<std::uint64_t> a_;  ///< N(a) before a merge
};

}  // namespace

CliqueCover cliquePartition(const CompatGraph& g) {
  CliqueCover cover = Partitioner(g).run();
  MPHLS_CHECK(coverIsValid(g, cover), "greedy clique cover invalid");
  return cover;
}

namespace {

struct ExactSearcher {
  const CompatGraph& g;
  long budget;
  long nodes = 0;
  bool exhausted = false;

  std::vector<std::size_t> assign;       // clique per node (partial)
  std::vector<std::size_t> best;
  std::size_t bestCount = 0;

  ExactSearcher(const CompatGraph& graph, long b) : g(graph), budget(b) {
    assign.assign(g.size(), 0);
    best.assign(g.size(), 0);
  }

  void dfs(std::size_t idx, std::size_t used) {
    if (exhausted || ++nodes > budget) {
      exhausted = true;
      return;
    }
    if (used >= bestCount) return;  // bound
    if (idx == g.size()) {
      bestCount = used;
      best = assign;
      return;
    }
    // Try existing cliques.
    for (std::size_t c = 0; c < used; ++c) {
      bool ok = true;
      for (std::size_t j = 0; j < idx; ++j) {
        if (assign[j] == c && !g.compatible(idx, j)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        assign[idx] = c;
        dfs(idx + 1, used);
      }
    }
    // Open a new clique.
    assign[idx] = used;
    dfs(idx + 1, used + 1);
  }
};

}  // namespace

CliqueCover cliquePartitionExact(const CompatGraph& g, long nodeBudget) {
  CliqueCover greedy = cliquePartition(g);
  if (g.size() == 0) return greedy;

  ExactSearcher sr(g, nodeBudget);
  // Seed with the greedy solution as the incumbent.
  sr.best = greedy.group;
  sr.bestCount = greedy.count;
  sr.dfs(0, 0);

  CliqueCover cover;
  cover.group = sr.best;
  cover.count = sr.bestCount;
  MPHLS_CHECK(coverIsValid(g, cover), "exact clique cover invalid");
  return cover;
}

}  // namespace mphls
