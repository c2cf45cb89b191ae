// Whole-flow static verification: run every stage-boundary analyzer over a
// finished RTL design and collect one report. The test suite uses it to
// assert that known-good designs are check-clean while hand-corrupted ones
// fail with precise check ids; the fuzz gate runs the netlist lint through
// it, and the stage analyzers too on a design changed after synthesis.
#pragma once

#include "check/check_binding.h"
#include "check/check_controller.h"
#include "check/check_schedule.h"
#include "check/check_semantics.h"
#include "check/check_timing.h"
#include "check/lint_verilog.h"
#include "check/report.h"
#include "rtl/design.h"

namespace mphls {

struct CheckOptions {
  /// Resource limits the schedule was produced under (unlimited to skip the
  /// concurrency check, e.g. for time-constrained schedulers).
  ResourceLimits resources = ResourceLimits::unlimited();
  OpLatencyModel latencies = OpLatencyModel::unit();
  bool schedule = true;
  bool binding = true;
  bool controller = true;
  /// Run the abstract-interpretation semantic lints (check_semantics.h)
  /// over the behavioral IR: read-before-write, dead branches, unreachable
  /// blocks, guaranteed truncation, possible division by zero.
  bool semantics = true;
  /// Emit Verilog and lint the netlist. Skipped automatically for
  /// multicycle latency models (the emitter supports unit latency only).
  bool netlist = true;
  /// Run STA at the estimated clock and its timing-closure lint
  /// (check_timing.h): STA-vs-estimator cross-validation, negative slack,
  /// chain overruns.
  bool timing = true;
};

/// Run all enabled analyzers; findings accumulate in one report.
[[nodiscard]] CheckReport checkDesign(const RtlDesign& design,
                                      const CheckOptions& options = {});

}  // namespace mphls
