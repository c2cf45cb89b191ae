// E10 — register allocation methods.
//
// Section 3.2: REAL's left-edge algorithm ("selects the earliest value to
// assign at each step, sharing registers among values whenever possible")
// versus clique partitioning versus the naive one-register-per-value
// baseline. Left edge is optimal for interval lifetimes: its count equals
// the max-overlap lower bound.
#include <cstdio>

#include "alloc/lifetime.h"
#include "alloc/reg_alloc.h"
#include "bench/bench_util.h"
#include "check/check_binding.h"
#include "core/designs.h"
#include "lang/frontend.h"
#include "sched/list_sched.h"
#include "sched/sched_util.h"

using namespace mphls;

int main() {
  std::printf("== E10: register allocation (REAL / clique / naive) ==\n\n");
  std::printf("%-10s %10s %10s %10s %10s %12s\n", "design", "items",
              "overlap", "left-edge", "clique", "naive");

  bool leftEdgeAlwaysOptimal = true;
  bool allValid = true;
  long naiveTotal = 0, leTotal = 0;
  for (const auto& d : designs::all()) {
    Function fn = compileBdlOrThrow(d.source);
    auto limits = ResourceLimits::universalSet(2);
    Schedule sched = scheduleFunction(fn, [&](const BlockDeps& dd) {
      return listSchedule(dd, limits, ListPriority::PathLength);
    });
    LifetimeInfo lt = computeLifetimes(fn, sched);
    auto le = allocateRegisters(lt, RegAllocMethod::LeftEdge);
    auto cq = allocateRegisters(lt, RegAllocMethod::Clique);
    auto na = allocateRegisters(lt, RegAllocMethod::Naive);
    CheckReport rep;
    for (const RegAssignment* regs : {&le, &cq, &na})
      checkRegisters(lt, *regs, rep);
    allValid = allValid && rep.clean();
    std::printf("%-10s %10zu %10d %10d %10d %12d\n", d.name,
                lt.items.size(), lt.maxOverlap(), le.numRegs, cq.numRegs,
                na.numRegs);
    if (le.numRegs != lt.maxOverlap()) leftEdgeAlwaysOptimal = false;
    naiveTotal += na.numRegs;
    leTotal += le.numRegs;
  }
  std::printf("\n");
  bench::claim("left edge always achieves the max-overlap lower bound",
               leftEdgeAlwaysOptimal);
  bench::claim("every assignment valid (no overlapping lifetimes share)",
               allValid);
  std::printf("  sharing saves %ld of %ld naive registers (%.0f%%)\n",
              naiveTotal - leTotal, naiveTotal,
              100.0 * (double)(naiveTotal - leTotal) / (double)naiveTotal);
  return 0;
}
