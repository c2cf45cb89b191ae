// The three workloads. Each measures for `seconds` seconds with tracing
// off (trace = false) and reports the end-to-end table, or runs the traced
// variant (trace = true) and reports the per-layer table. Output checks run
// after the timed window and never count toward a metric.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "alloc/fu_alloc.h"
#include "alloc/reg_alloc.h"
#include "ir/cdfg.h"
#include "rtl/design.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// The mphls CLI, started as the serve-mix daemon.
  std::string mphls;
  /// A directory for the serve-mix daemon's access log.
  std::string workDir;
};

/// fuzz-standard: one-seed fuzz::runCampaign calls over a seeded program
/// list (standard matrix, 4 co-simulation trials, default VM engine, one
/// thread).
[[nodiscard]] RunResult runFuzz(const RunOptions& o);

/// dse-ladder: resource sweep, force-directed time sweep and Chippe
/// iteration over the builtins plus generated chain/wide designs, on a
/// pool of four workers.
[[nodiscard]] RunResult runDse(const RunOptions& o);

/// serve-mix: an `mphls serve` daemon driven by an open-loop generator at
/// fixed offered rates; reports the daemon's capacity and handling latency.
[[nodiscard]] RunResult runServe(const RunOptions& o);

// ------------------------------------------------------- shared helpers

/// Seconds on a monotonic clock (the tracer's clock, so window bounds and
/// span times compare directly).
[[nodiscard]] double nowSeconds();

/// Median of `reps` timed calls of `f` — the set-up time of a run.
[[nodiscard]] double medianSetupSeconds(int reps,
                                        const std::function<void()>& f);

/// Every per-layer metric set to 0, then the self times of `main` (the
/// workload's traced window of `wall` seconds) and the replayed
/// allocation split of `replay` filled in, plus unattributed_share.
void fillLayerMetrics(RunResult& r, const LayerSplit& main,
                      const LayerSplit& replay, double wall);

/// Enable the global tracer on a clean slate / stop it and collect.
void startTracing();
[[nodiscard]] std::vector<Span> stopTracing();

/// Replay lifetime analysis, register allocation, FU allocation and
/// interconnect on the scheduled `d` under a "replay" span (one child span
/// per step: alloc.lifetime, alloc.reg, alloc.fu, alloc.interconnect).
/// Returns false when the replay disagrees with what the synthesizer
/// produced for `d`.
[[nodiscard]] bool replayAllocation(const mphls::RtlDesign& d,
                                    mphls::RegAllocMethod reg,
                                    mphls::FuAllocMethod fu,
                                    const mphls::OpLatencyModel& lat);

/// Operations placed in the blocks of `fn`.
[[nodiscard]] std::size_t opCount(const mphls::Function& fn);

}  // namespace perfbench
