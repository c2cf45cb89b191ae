// The from-scratch HAL formulation of force-directed scheduling (Section
// 3.1.1, Fig. 5): every time frame and distribution graph is rebuilt on
// each candidate evaluation, O(n²·H·(n+E)) per schedule. It is the oracle
// the incremental scheduler (sched/force_directed.h) is tested against:
// both must produce the same schedule on every input, and the speed tests
// time one against the other.
#pragma once

#include "ir/deps.h"
#include "sched/schedule.h"

namespace mphls {

[[nodiscard]] BlockSchedule forceDirectedScheduleReference(
    const BlockDeps& deps, int horizon);

}  // namespace mphls
