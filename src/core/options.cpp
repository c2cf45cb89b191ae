#include "core/options.h"

#include <climits>
#include <cmath>

namespace mphls::options {

namespace {

constexpr Token kSchedulers[] = {
    {"serial", (int)SchedulerKind::Serial}, {"asap", (int)SchedulerKind::Asap},
    {"list", (int)SchedulerKind::List},
    {"force", (int)SchedulerKind::ForceDirected},
    {"freedom", (int)SchedulerKind::Freedom},
    {"bnb", (int)SchedulerKind::BranchBound},
    {"transform", (int)SchedulerKind::Transform}};
constexpr Token kPriorities[] = {{"path", (int)ListPriority::PathLength},
                                 {"mobility", (int)ListPriority::Mobility},
                                 {"urgency", (int)ListPriority::Urgency},
                                 {"program", (int)ListPriority::ProgramOrder}};
constexpr Token kOptLevels[] = {{"none", (int)OptLevel::None},
                                {"standard", (int)OptLevel::Standard},
                                {"aggressive", (int)OptLevel::Aggressive}};
constexpr Token kFuMethods[] = {
    {"greedy", (int)FuAllocMethod::GreedyLocal},
    {"global", (int)FuAllocMethod::GreedyGlobal},
    {"blind", (int)FuAllocMethod::InterconnectBlind},
    {"clique", (int)FuAllocMethod::Clique}};
constexpr Token kRegMethods[] = {{"leftedge", (int)RegAllocMethod::LeftEdge},
                                 {"clique", (int)RegAllocMethod::Clique},
                                 {"naive", (int)RegAllocMethod::Naive}};
constexpr Token kEncodings[] = {{"binary", (int)StateEncoding::Binary},
                                {"gray", (int)StateEncoding::Gray},
                                {"onehot", (int)StateEncoding::OneHot}};

using O = SynthesisOptions;

// `jobs` and `prove` have no JSON key: the daemon owns its worker pool,
// and a proof is its own endpoint.
constexpr Option kTable[] = {
    {"scheduler", "--scheduler", "scheduler", Kind::Enum, kSchedulers, 0,
     (int)SchedulerKind::List,
     [](O& o, int v) { o.scheduler = (SchedulerKind)v; }},
    {"fus", "--fus", "fus", Kind::Int, {}, 1, 2,
     [](O& o, int v) { o.resources = ResourceLimits::universalSet(v); }},
    {"priority", "--priority", "priority", Kind::Enum, kPriorities, 0,
     (int)ListPriority::PathLength,
     [](O& o, int v) { o.listPriority = (ListPriority)v; }},
    {"opt", "--opt", "opt level", Kind::Enum, kOptLevels, 0,
     (int)OptLevel::Standard, [](O& o, int v) { o.opt = (OptLevel)v; }},
    {"fu_alloc", "--fu-alloc", "fu_alloc", Kind::Enum, kFuMethods, 0,
     (int)FuAllocMethod::GreedyLocal,
     [](O& o, int v) { o.fuMethod = (FuAllocMethod)v; }},
    {"reg_alloc", "--reg-alloc", "reg_alloc", Kind::Enum, kRegMethods, 0,
     (int)RegAllocMethod::LeftEdge,
     [](O& o, int v) { o.regMethod = (RegAllocMethod)v; }},
    {"encoding", "--encoding", "encoding", Kind::Enum, kEncodings, 0,
     (int)StateEncoding::Binary,
     [](O& o, int v) { o.encoding = (StateEncoding)v; }},
    {"time_constraint", "--time-constraint", "time_constraint",
     Kind::Int, {}, INT_MIN, 0, [](O& o, int v) { o.timeConstraint = v; }},
    {"", "--jobs", "jobs", Kind::Int, {}, 1, 0,
     [](O& o, int v) { o.jobs = v; }},
    {"multicycle", "--multicycle", "multicycle", Kind::Bool, {}, 0, 0,
     [](O& o, int v) {
       o.latencies = v ? OpLatencyModel::multiCycle() : OpLatencyModel::unit();
     }},
    {"narrow", "--narrow", "narrow", Kind::Bool, {}, 0, 0,
     [](O& o, int v) { o.narrow = v != 0; }},
    {"", "--prove", "prove", Kind::Bool, {}, 0, 0,
     [](O& o, int v) { o.prove = v != 0; }},
};

std::string_view tokenIn(std::span<const Token> tokens, int value) {
  for (const Token& t : tokens)
    if (t.value == value) return t.text;
  return "?";
}

}  // namespace

std::span<const Option> table() { return kTable; }

SynthesisOptions defaults() {
  SynthesisOptions o;
  for (const Option& r : kTable) r.set(o, r.def);
  return o;
}

bool applyToken(const Option& o, std::string_view value,
                SynthesisOptions& opts) {
  int v = 1;
  switch (o.kind) {
    case Kind::Bool:
      break;
    case Kind::Int:
      if (!parseNumber(value, o.min, INT_MAX, v)) return false;
      break;
    case Kind::Enum: {
      const Token* hit = nullptr;
      for (const Token& t : o.tokens)
        if (t.text == value) hit = &t;
      if (!hit) return false;
      v = hit->value;
      break;
    }
  }
  o.set(opts, v);
  return true;
}

std::string applyJson(const json::Node& obj, SynthesisOptions& opts) {
  for (const auto& [key, val] : obj.members()) {
    const Option* o = nullptr;
    for (const Option& r : kTable)
      if (!r.key.empty() && r.key == key) o = &r;
    if (!o) return "unknown option: " + key;
    std::string bad = "bad ";
    bad += o->what;
    const json::Node& v = *val;
    switch (o->kind) {
      case Kind::Bool:
        if (!v.isBool()) return bad;
        o->set(opts, v.boolean() ? 1 : 0);
        break;
      case Kind::Int: {
        // Range-check before the conversion: a double outside int range
        // (1e300) has no int value at all.
        const double x = v.number();
        if (!v.isNumber() || !(x >= o->min && x <= INT_MAX) ||
            x != std::floor(x))
          return bad;
        o->set(opts, (int)x);
        break;
      }
      case Kind::Enum:
        if (!applyToken(*o, v.str(), opts)) return bad + ": " + v.str();
        break;
    }
  }
  return "";
}

std::string_view token(SchedulerKind v) { return tokenIn(kSchedulers, (int)v); }
std::string_view token(ListPriority v) { return tokenIn(kPriorities, (int)v); }
std::string_view token(OptLevel v) { return tokenIn(kOptLevels, (int)v); }
std::string_view token(FuAllocMethod v) { return tokenIn(kFuMethods, (int)v); }
std::string_view token(RegAllocMethod v) {
  return tokenIn(kRegMethods, (int)v);
}
std::string_view token(StateEncoding v) { return tokenIn(kEncodings, (int)v); }

}  // namespace mphls::options
