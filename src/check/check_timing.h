// Timing-closure lint: the stage-boundary analyzer over the finished RTL
// design's timing. Three families of findings:
//
//   timing.negative-slack     error    a named path misses the declared
//                                      clock (state, launch, route,
//                                      capture, arrival vs required)
//   timing.estimate-divergence error   the STA engine (src/sta/) and
//                                      estimateTiming (src/estim/) — two
//                                      independent implementations of the
//                                      same timing model — disagree beyond
//                                      tolerance, i.e. one of them is wrong
//   timing.chain-overrun      warning  wiring overhead (operand/destination
//                                      muxes, setup, chained captures) in
//                                      one control step eats more of the
//                                      clock budget than the scheduler's
//                                      single-FU-delay assumption allows
//   timing.comb-loop          error    the structural timing graph has a
//                                      combinational cycle
//   timing.analysis-error     error    the analysis itself failed (corrupt
//                                      design); analyzers never throw
#pragma once

#include "check/report.h"
#include "rtl/design.h"
#include "sta/sta.h"

namespace mphls {

struct TimingLintOptions {
  /// Absolute tolerance for slack and for STA-vs-estimator agreement.
  double tolerance = 1e-6;
  /// Warn when a state's wiring overhead beyond the scheduler's per-step
  /// FU-delay assumption exceeds this fraction of the clock.
  double chainSlackFraction = 0.5;
  /// Cap on reported negative-slack paths.
  int maxReported = 5;
};

/// Run sta::runSta on `design` into `out`. The analysis failing (a corrupt
/// design) is reported as timing.analysis-error and returns false, so the
/// analyzer contract — report, never throw — holds for timing too.
bool runTimingAnalysis(const RtlDesign& design, const sta::StaOptions& options,
                       sta::StaResult& out, CheckReport& report);

/// Lint `sta`, the result of runSta on `design` (at whatever clock it was
/// run with).
void checkTiming(const RtlDesign& design, const sta::StaResult& sta,
                 const TimingLintOptions& options, CheckReport& report);

}  // namespace mphls
