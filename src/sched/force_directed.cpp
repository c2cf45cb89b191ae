#include "sched/force_directed.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "ir/analysis.h"
#include "sched/sched_util.h"

namespace mphls {

Frames computeFrames(const BlockDeps& deps, int horizon,
                     const std::vector<int>& fixed) {
  const std::size_t n = deps.numOps();
  Frames fr;
  fr.lo.assign(n, 0);
  fr.hi.assign(n, horizon - 1);

  std::vector<std::vector<const DepEdge*>> in(n), out(n);
  for (const DepEdge& e : deps.edges()) {
    in[e.to].push_back(&e);
    out[e.from].push_back(&e);
  }
  auto order = deps.topoOrder();
  for (std::size_t i : order) {
    if (!fixed.empty() && fixed[i] >= 0) fr.lo[i] = fixed[i];
    for (const DepEdge* e : in[i])
      fr.lo[i] = std::max(fr.lo[i], fr.lo[e->from] + deps.edgeLatency(*e));
    if (!fixed.empty() && fixed[i] >= 0)
      fr.lo[i] = std::max(fr.lo[i], fixed[i]);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::size_t i = *it;
    if (!fixed.empty() && fixed[i] >= 0) fr.hi[i] = fixed[i];
    for (const DepEdge* e : out[i])
      fr.hi[i] = std::min(fr.hi[i], fr.hi[e->to] - deps.edgeLatency(*e));
    fr.hi[i] = std::max(fr.hi[i], fr.lo[i]);  // keep frames non-empty
  }
  return fr;
}

namespace {

/// Frame change produced by a (trial or committed) fix.
struct FrameDiff {
  int lo = 0, hi = 0;  ///< the op's new frame
};

/// Cached frames + distribution graphs for one force-directed run.
///
/// trial(i, s) answers "which frames change if op i is fixed at step s?"
/// by propagating only along affected dependence chains: the ASAP pass
/// walks forward from i in topological order, the ALAP pass walks backward
/// from i and from every op whose ASAP bound moved (the non-empty-frame
/// clamp couples hi to lo). Both passes recompute a node exactly the way
/// computeFrames does, so the reachable fixpoint — and therefore the
/// schedule — is identical to the from-scratch computation.
class FrameCache {
 public:
  FrameCache(const BlockDeps& deps, int horizon)
      : deps_(deps), horizon_(horizon), n_(deps.numOps()) {
    in_.resize(n_);
    out_.resize(n_);
    for (const DepEdge& e : deps.edges()) {
      const int lat = deps.edgeLatency(e);
      in_[e.to].push_back({e.from, lat});
      out_[e.from].push_back({e.to, lat});
    }
    topo_ = deps.topoOrder();
    pos_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) pos_[topo_[k]] = k;
    fixed_.assign(n_, -1);
    fr_ = computeFrames(deps, horizon, fixed_);
    loStamp_.assign(n_, 0);
    hiStamp_.assign(n_, 0);
    loVal_.assign(n_, 0);
    hiVal_.assign(n_, 0);
    rebuildDgs();
  }

  [[nodiscard]] const Frames& frames() const { return fr_; }
  [[nodiscard]] const std::map<FuClass, DistributionGraph>& dgs() const {
    return dgs_;
  }
  [[nodiscard]] const std::vector<int>& fixed() const { return fixed_; }

  /// Ops whose frames change when `i` is fixed at `s`, keyed by op index
  /// (ascending, so force terms accumulate in the reference order), each
  /// with its new frame. Ops whose recomputed frame is unchanged are
  /// absent. Valid until the next trial() or fix() call.
  const std::map<std::size_t, FrameDiff>& trial(std::size_t i, int s) {
    ++gen_;
    diff_.clear();
    changedLo_.clear();
    changedHi_.clear();
    trialOp_ = i;
    trialStep_ = s;

    // ASAP pass: forward from i in topological order.
    pending_.clear();
    pending_.insert(pos_[i]);
    while (!pending_.empty()) {
      const std::size_t p = *pending_.begin();
      pending_.erase(pending_.begin());
      const std::size_t j = topo_[p];
      const int f = fixedAt(j);
      int v = f >= 0 ? f : 0;
      for (const auto& [from, lat] : in_[j])
        v = std::max(v, loOf(from) + lat);
      if (v == fr_.lo[j]) continue;
      loVal_[j] = v;
      loStamp_[j] = gen_;
      changedLo_.push_back(j);
      for (const auto& [to, lat] : out_[j]) pending_.insert(pos_[to]);
    }

    // ALAP pass: backward from i and from every op whose lo moved (the
    // non-empty-frame clamp couples hi to lo).
    pendingRev_.clear();
    pendingRev_.insert(pos_[i]);
    for (std::size_t j : changedLo_) pendingRev_.insert(pos_[j]);
    while (!pendingRev_.empty()) {
      const std::size_t p = *pendingRev_.begin();
      pendingRev_.erase(pendingRev_.begin());
      const std::size_t j = topo_[p];
      const int f = fixedAt(j);
      int v = f >= 0 ? f : horizon_ - 1;
      for (const auto& [to, lat] : out_[j]) v = std::min(v, hiOf(to) - lat);
      v = std::max(v, loOf(j));  // keep frames non-empty
      if (v == fr_.hi[j]) continue;
      hiVal_[j] = v;
      hiStamp_[j] = gen_;
      changedHi_.push_back(j);
      for (const auto& [from, lat] : in_[j]) pendingRev_.insert(pos_[from]);
    }

    for (std::size_t j : changedLo_) diff_[j] = FrameDiff{loOf(j), hiOf(j)};
    for (std::size_t j : changedHi_) diff_[j] = FrameDiff{loOf(j), hiOf(j)};
    return diff_;
  }

  /// Fix op `i` at step `s`: apply the trial deltas to the cached frames
  /// and refresh the distribution graphs.
  void fix(std::size_t i, int s) {
    const auto& d = trial(i, s);
    fixed_[i] = s;
    for (const auto& [j, df] : d) {
      fr_.lo[j] = df.lo;
      fr_.hi[j] = df.hi;
    }
    trialOp_ = kNoTrial;
    rebuildDgs();
  }

 private:
  static constexpr std::size_t kNoTrial =
      std::numeric_limits<std::size_t>::max();

  [[nodiscard]] int fixedAt(std::size_t j) const {
    return j == trialOp_ ? trialStep_ : fixed_[j];
  }
  [[nodiscard]] int loOf(std::size_t j) const {
    return loStamp_[j] == gen_ ? loVal_[j] : fr_.lo[j];
  }
  [[nodiscard]] int hiOf(std::size_t j) const {
    return hiStamp_[j] == gen_ ? hiVal_[j] : fr_.hi[j];
  }

  // Same per-op contribution loop as distributionGraphs(), run over the
  // cached frames: identical iteration order, identical floating-point
  // sums.
  void rebuildDgs() {
    dgs_.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      FuClass c = scheduleClassOf(deps_, i);
      if (c == FuClass::None) continue;
      auto& dg = dgs_[c];
      dg.fuClass = c;
      if (dg.load.empty())
        dg.load.assign(static_cast<std::size_t>(horizon_), 0.0);
      const int k = fr_.hi[i] - fr_.lo[i] + 1;
      for (int s = fr_.lo[i]; s <= fr_.hi[i]; ++s)
        dg.load[static_cast<std::size_t>(s)] += 1.0 / k;
    }
  }

  const BlockDeps& deps_;
  const int horizon_;
  const std::size_t n_;
  std::vector<std::vector<std::pair<std::size_t, int>>> in_, out_;
  std::vector<std::size_t> topo_, pos_;
  std::vector<int> fixed_;
  Frames fr_;
  std::map<FuClass, DistributionGraph> dgs_;

  // Trial scratch: generation-stamped overlays over fr_, so a trial costs
  // only its affected ops — nothing is cleared between candidates.
  unsigned gen_ = 0;
  std::size_t trialOp_ = kNoTrial;
  int trialStep_ = -1;
  std::vector<unsigned> loStamp_, hiStamp_;
  std::vector<int> loVal_, hiVal_;
  std::vector<std::size_t> changedLo_, changedHi_;
  std::set<std::size_t> pending_;                        // min-first
  std::set<std::size_t, std::greater<>> pendingRev_;     // max-first
  std::map<std::size_t, FrameDiff> diff_;
};

}  // namespace

std::map<FuClass, DistributionGraph> distributionGraphs(
    const BlockDeps& deps, int horizon, const std::vector<int>& fixed) {
  LevelInfo li = computeLevels(deps, horizon);
  horizon = std::max(horizon, li.criticalLength);
  Frames fr = computeFrames(deps, horizon, fixed);

  std::map<FuClass, DistributionGraph> dgs;
  for (std::size_t i = 0; i < deps.numOps(); ++i) {
    FuClass c = scheduleClassOf(deps, i);
    if (c == FuClass::None) continue;
    auto& dg = dgs[c];
    dg.fuClass = c;
    if (dg.load.empty()) dg.load.assign(static_cast<std::size_t>(horizon), 0.0);
    const int k = fr.hi[i] - fr.lo[i] + 1;
    for (int s = fr.lo[i]; s <= fr.hi[i]; ++s)
      dg.load[static_cast<std::size_t>(s)] += 1.0 / k;
  }
  return dgs;
}

BlockSchedule forceDirectedSchedule(const BlockDeps& deps, int horizon) {
  const std::size_t n = deps.numOps();
  LevelInfo li = computeLevels(deps, horizon);
  horizon = std::max(horizon, li.criticalLength);

  FrameCache cache(deps, horizon);

  // Iteratively fix the (op, step) assignment with the least force.
  for (;;) {
    const Frames& fr = cache.frames();
    const auto& dgs = cache.dgs();
    const std::vector<int>& fixed = cache.fixed();

    bool any = false;
    double bestForce = std::numeric_limits<double>::max();
    std::size_t bestOp = 0;
    int bestStep = 0;

    for (std::size_t i = 0; i < n; ++i) {
      FuClass c = scheduleClassOf(deps, i);
      if (c == FuClass::None || fixed[i] >= 0) continue;
      if (fr.lo[i] == fr.hi[i]) {
        // Frame already tight: fix it outright.
        cache.fix(i, fr.lo[i]);
        any = true;
        bestForce = std::numeric_limits<double>::max();
        break;
      }
      any = true;
      const DistributionGraph& dg = dgs.at(c);
      const int k = fr.hi[i] - fr.lo[i] + 1;
      const double avg = 1.0 / k;
      for (int s = fr.lo[i]; s <= fr.hi[i]; ++s) {
        // Self force: DG(s)*(x(s) - avg) summed over the frame, where x is
        // the candidate assignment (1 at s, 0 elsewhere).
        double force = 0;
        for (int t = fr.lo[i]; t <= fr.hi[i]; ++t) {
          double x = (t == s) ? 1.0 : 0.0;
          force += dg.at(t) * (x - avg);
        }
        // Successor/predecessor forces: fixing i at s narrows neighbors'
        // frames; approximate with the DG load change of direct neighbors.
        // The cache hands back exactly the ops whose frames the trial
        // placement moved, in ascending op order.
        for (const auto& [j, df] : cache.trial(i, s)) {
          if (j == i) continue;
          FuClass cj = scheduleClassOf(deps, j);
          if (cj == FuClass::None || fixed[j] >= 0) continue;
          const DistributionGraph& dgj = dgs.at(cj);
          int kOld = fr.hi[j] - fr.lo[j] + 1;
          int kNew = df.hi - df.lo + 1;
          for (int t = df.lo; t <= df.hi; ++t)
            force += dgj.at(t) * (1.0 / kNew);
          for (int t = fr.lo[j]; t <= fr.hi[j]; ++t)
            force -= dgj.at(t) * (1.0 / kOld);
        }
        if (force < bestForce) {
          bestForce = force;
          bestOp = i;
          bestStep = s;
        }
      }
    }
    if (!any) break;
    if (bestForce != std::numeric_limits<double>::max()) {
      cache.fix(bestOp, bestStep);
    }
  }
  return finalizeSchedule(deps, cache.fixed());
}

}  // namespace mphls
