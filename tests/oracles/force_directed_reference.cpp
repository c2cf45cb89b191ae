#include "oracles/force_directed_reference.h"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "ir/analysis.h"
#include "sched/force_directed.h"
#include "sched/sched_util.h"

namespace mphls {

BlockSchedule forceDirectedScheduleReference(const BlockDeps& deps,
                                             int horizon) {
  const std::size_t n = deps.numOps();
  LevelInfo li = computeLevels(deps, horizon);
  horizon = std::max(horizon, li.criticalLength);

  std::vector<int> fixed(n, -1);

  // Iteratively fix the (op, step) assignment with the least force.
  for (;;) {
    Frames fr = computeFrames(deps, horizon, fixed);
    auto dgs = distributionGraphs(deps, horizon, fixed);

    // Find an unfixed occupying op.
    bool any = false;
    double bestForce = std::numeric_limits<double>::max();
    std::size_t bestOp = 0;
    int bestStep = 0;

    for (std::size_t i = 0; i < n; ++i) {
      FuClass c = scheduleClassOf(deps, i);
      if (c == FuClass::None || fixed[i] >= 0) continue;
      if (fr.lo[i] == fr.hi[i]) {
        // Frame already tight: fix it outright.
        fixed[i] = fr.lo[i];
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
        std::vector<int> trial = fixed;
        trial[i] = s;
        Frames trialFr = computeFrames(deps, horizon, trial);
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          FuClass cj = scheduleClassOf(deps, j);
          if (cj == FuClass::None || fixed[j] >= 0) continue;
          if (trialFr.lo[j] == fr.lo[j] && trialFr.hi[j] == fr.hi[j]) continue;
          const DistributionGraph& dgj = dgs.at(cj);
          int kOld = fr.hi[j] - fr.lo[j] + 1;
          int kNew = trialFr.hi[j] - trialFr.lo[j] + 1;
          for (int t = trialFr.lo[j]; t <= trialFr.hi[j]; ++t)
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
      fixed[bestOp] = bestStep;
    }
  }
  return finalizeSchedule(deps, fixed);
}

}  // namespace mphls
