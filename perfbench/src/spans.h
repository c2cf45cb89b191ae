// Per-layer self time from the span tracer's in-memory tracks.
//
// The traced run keeps every span in memory (obs::Tracer) and turns the
// snapshot into a flat span list here. A span's self time is its duration
// minus the time its direct children cover; summing self time by layer
// splits wall time without double counting nested layers (frontend.compile
// contains opt.pipeline, stage.check contains sta.run, ...).
//
// Spans under a span named "replay" belong to the benchmark's own replays
// (the allocation split, the clique growth probe): they are kept apart from
// the workload's accounting.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Span {
  std::string name;
  std::string arg;
  int track = 0;
  double start = 0;  ///< seconds on the tracer clock
  double end = 0;
  double self = 0;   ///< duration minus the duration of direct children
  int parent = -1;   ///< index into the span list, -1 at top level
  bool replay = false;
};

/// Pair the B/E events of every track into spans and compute self times.
/// Unclosed spans are dropped.
[[nodiscard]] std::vector<Span> collectSpans(
    const std::vector<mphls::obs::Tracer::TrackSnapshot>& tracks);

/// The layer a span name is charged to ("lang", "opt", "sched", "alloc",
/// "ctrl", "estim", "check", "sta", "rtl.verilog", "vm.compile", "vm.exec",
/// "core", "fuzz.gen", "fuzz.golden", "serve", "sec", or a replayed
/// allocation step "alloc.*"), or "" for the benchmark's wrapper spans.
[[nodiscard]] std::string layerOf(std::string_view name);

struct LayerSplit {
  std::map<std::string, double> self;       ///< layer -> self seconds
  std::map<std::string, double> inclusive;  ///< span name -> seconds
  std::map<std::string, long> count;        ///< span name -> spans
  /// Seconds of [t0, t1) during which some layer span was open on any
  /// track; the rest of the window is unattributed.
  double covered = 0;
};

/// Sum the spans that start in [t0, t1) and are (replay = true) or are not
/// (replay = false) part of a benchmark replay.
[[nodiscard]] LayerSplit splitLayers(const std::vector<Span>& spans,
                                     double t0, double t1,
                                     bool replay = false);

}  // namespace perfbench
