#include "spans.h"

#include <algorithm>

namespace perfbench {

namespace {

bool startsWith(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

}  // namespace

std::vector<Span> collectSpans(
    const std::vector<mphls::obs::Tracer::TrackSnapshot>& tracks) {
  std::vector<Span> out;
  for (const auto& track : tracks) {
    std::vector<int> stack;  // indices into `out` of the open spans
    for (const auto& ev : track.events) {
      if (ev.phase == 'B') {
        Span s;
        s.name = ev.name;
        s.arg = ev.arg;
        s.track = track.tid;
        s.start = ev.tsMicros / 1e6;
        s.end = -1;
        s.parent = stack.empty() ? -1 : stack.back();
        s.replay = s.name == "replay" ||
                   (s.parent >= 0 && out[(std::size_t)s.parent].replay);
        stack.push_back((int)out.size());
        out.push_back(std::move(s));
      } else if (ev.phase == 'E' && !stack.empty()) {
        out[(std::size_t)stack.back()].end = ev.tsMicros / 1e6;
        stack.pop_back();
      }
    }
  }
  // Self time: duration minus the direct children's durations. Children
  // nest within their parent on one track, so the subtraction is exact.
  for (Span& s : out) s.self = s.end >= 0 ? s.end - s.start : 0;
  for (const Span& s : out)
    if (s.parent >= 0 && s.end >= 0)
      out[(std::size_t)s.parent].self -= s.end - s.start;
  // Drop unclosed spans, remapping parents (an unclosed span's children
  // are unclosed too, so no kept span points at a dropped one).
  std::vector<int> remap(out.size(), -1);
  std::vector<Span> kept;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].end < 0) continue;
    remap[i] = (int)kept.size();
    kept.push_back(std::move(out[i]));
  }
  for (Span& s : kept)
    if (s.parent >= 0) s.parent = remap[(std::size_t)s.parent];
  return kept;
}

std::string layerOf(std::string_view name) {
  if (name == "frontend.compile" || startsWith(name, "lang.")) return "lang";
  if (name == "stage.optimize" || startsWith(name, "opt.") ||
      startsWith(name, "pass."))
    return "opt";
  if (name == "stage.schedule") return "sched";
  if (name == "stage.allocate") return "alloc";
  if (startsWith(name, "alloc.")) return std::string(name);
  if (name == "stage.control") return "ctrl";
  if (name == "stage.estimate") return "estim";
  if (name == "stage.check" || startsWith(name, "check.")) return "check";
  if (startsWith(name, "sta.")) return "sta";
  if (name == "rtl.verilog") return "rtl.verilog";
  if (name == "vm.compile" || name == "vm.exec") return std::string(name);
  if (name == "dse.point" || startsWith(name, "core.")) return "core";
  if (name == "fuzz.gen" || name == "fuzz.golden") return std::string(name);
  if (startsWith(name, "serve/")) return "serve";
  if (name == "stage.prove" || startsWith(name, "sec.")) return "sec";
  return "";
}

LayerSplit splitLayers(const std::vector<Span>& spans, double t0, double t1,
                       bool replay) {
  LayerSplit out;
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans) {
    if (s.replay != replay || s.start < t0 || s.start >= t1) continue;
    out.inclusive[s.name] += s.end - s.start;
    out.count[s.name] += 1;
    const std::string layer = layerOf(s.name);
    if (layer.empty()) continue;
    out.self[layer] += s.self;
    iv.emplace_back(s.start, std::min(s.end, t1));
  }
  std::sort(iv.begin(), iv.end());
  double curStart = 0, curEnd = -1;
  for (const auto& [a, b] : iv) {
    if (a > curEnd) {
      if (curEnd > curStart) out.covered += curEnd - curStart;
      curStart = a;
      curEnd = b;
    } else {
      curEnd = std::max(curEnd, b);
    }
  }
  if (curEnd > curStart) out.covered += curEnd - curStart;
  return out;
}

}  // namespace perfbench
