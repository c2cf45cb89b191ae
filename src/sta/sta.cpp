#include "sta/sta.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "estim/estimate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mphls::sta {

namespace {

/// A timing graph: nodes are datapath pins (launch points, mux outputs,
/// FU outputs, capture points), edges carry the library delay between
/// them. Keys are stable strings so repeated references to the same pin
/// (e.g. one FU output feeding three captures) dedupe onto one node;
/// `display` is the human name used in path reports.
struct Graph {
  struct Node {
    std::string display;
    double init = 0;  ///< arrival before any in-edge (launches, busy FUs)
    double arrival = 0;
    int indeg = 0;
    int pred = -1;       ///< best in-edge, for path backtracking
    double predIncr = 0;
    bool endpoint = false;
  };

  std::vector<Node> nodes;
  std::vector<std::vector<std::pair<int, double>>> out;
  std::map<std::string, int> index;

  int node(const std::string& key, const std::string& display) {
    auto it = index.find(key);
    if (it != index.end()) return it->second;
    const int id = (int)nodes.size();
    index.emplace(key, id);
    Node n;
    n.display = display;
    nodes.push_back(std::move(n));
    out.emplace_back();
    return id;
  }

  void edge(int from, int to, double delay) {
    out[(std::size_t)from].emplace_back(to, delay);
    nodes[(std::size_t)to].indeg += 1;
  }

  void raiseInit(int id, double v) {
    Node& n = nodes[(std::size_t)id];
    n.init = std::max(n.init, v);
  }

  void markEndpoint(int id) { nodes[(std::size_t)id].endpoint = true; }

  /// Kahn topological longest-path relaxation. Returns false when a
  /// combinational cycle keeps some nodes unprocessed (their arrivals
  /// stay at `init`).
  bool relax() {
    std::vector<int> ready;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].arrival = nodes[i].init;
      if (nodes[i].indeg == 0) ready.push_back((int)i);
    }
    std::size_t processed = 0;
    std::vector<int> indeg(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) indeg[i] = nodes[i].indeg;
    while (!ready.empty()) {
      const int u = ready.back();
      ready.pop_back();
      processed += 1;
      for (const auto& [v, d] : out[(std::size_t)u]) {
        const double cand = nodes[(std::size_t)u].arrival + d;
        if (cand > nodes[(std::size_t)v].arrival) {
          nodes[(std::size_t)v].arrival = cand;
          nodes[(std::size_t)v].pred = u;
          nodes[(std::size_t)v].predIncr = d;
        }
        if (--indeg[(std::size_t)v] == 0) ready.push_back(v);
      }
    }
    return processed == nodes.size();
  }
};

std::string fmt(const char* f, ...) {
  char buf[128];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

std::string fuDisplay(const RtlDesign& d, int f) {
  std::string s = "fu" + std::to_string(f);
  if (f >= 0 && (std::size_t)f < d.binding.fus.size()) {
    const FuInstance& fu = d.binding.fus[(std::size_t)f];
    if (fu.comp.valid() && fu.comp.index() < d.lib.components().size())
      s += " (" + d.lib.component(fu.comp).name + " w" +
           std::to_string(fu.width) + ")";
  }
  return s;
}

std::string portDisplay(const RtlDesign& d, int p) {
  if (p >= 0 && (std::size_t)p < d.fn.ports().size())
    return "port " + d.fn.ports()[(std::size_t)p].name;
  return "port#" + std::to_string(p);
}

/// Location tag for a state: "<block>.s<step>".
std::string stateDesc(const RtlDesign& d, const CtrlState& st) {
  std::string b = st.block.valid() && st.block.index() < d.fn.numBlocks()
                      ? d.fn.block(st.block).name
                      : "b" + std::to_string(st.block.valid()
                                                 ? (int)st.block.get()
                                                 : -1);
  return b + ".s" + std::to_string(st.step);
}

/// Per-stage delay of multicycle unit `f` completing in `st` (its issue
/// action lives in an earlier step of the same block); full component
/// delay when no issue matches (corrupt input — stay conservative).
double completionStageDelay(const RtlDesign& d, const CtrlState& st, int f) {
  const FuInstance& fu = d.binding.fus[(std::size_t)f];
  const double full = d.lib.component(fu.comp).delay(fu.width);
  for (const CtrlState& is : d.ctrl.states) {
    if (is.block != st.block || is.step >= st.step) continue;
    for (const FuAction& fa : is.fuActions)
      if (fa.fu == f && fa.cycles > 1 && is.step + fa.cycles - 1 == st.step)
        return full / fa.cycles;
  }
  return full;
}

/// Builds the graph fragment for one state under state-aware rules.
struct StateGraphBuilder {
  const RtlDesign& d;
  const CtrlState& st;
  Graph& g;

  /// Node for functional unit `f`'s output in this state. Active units
  /// get their selected operand legs as in-edges (compute delay on the
  /// mux->fu edge, spread over the span for multicycle issues); units
  /// merely delivering a previously issued multicycle result arrive at
  /// their final internal stage's delay.
  int fuNode(int f) {
    const std::string key = "fu " + std::to_string(f);
    auto it = g.index.find(key);
    if (it != g.index.end()) return it->second;
    const int id = g.node(key, fuDisplay(d, f));
    if (f < 0 || (std::size_t)f >= d.binding.fus.size()) return id;
    const FuInstance& fu = d.binding.fus[(std::size_t)f];
    const FuAction* act = nullptr;
    for (const FuAction& fa : st.fuActions)
      if (fa.fu == f) act = &fa;
    if (act == nullptr) {
      g.raiseInit(id, completionStageDelay(d, st, f));
      return id;
    }
    const double compute = d.lib.component(fu.comp).delay(fu.width) /
                           std::max(act->cycles, 1);
    g.raiseInit(id, compute);  // covers an (ill-formed) input-less unit
    for (int p = 0; p < 3; ++p) {
      if (act->muxSel[p] < 0) continue;
      const MuxSpec& m = d.ic.fuInput[(std::size_t)f][(std::size_t)p];
      if (act->muxSel[p] >= m.legs()) continue;  // corrupt; checked elsewhere
      const int mux = g.node(fmt("mux fu %d.%d", f, p),
                             fmt("mux fu%d.in%d", f, p));
      g.edge(sourceNode(m.sources[(std::size_t)act->muxSel[p]]), mux,
             d.lib.muxDelay(m.legs()));
      g.edge(mux, id, compute);
    }
    return id;
  }

  /// Launch (or FU-output) node for a datapath source. Free wiring
  /// transforms cost nothing and are not separate nodes.
  int sourceNode(const Source& s) {
    switch (s.kind) {
      case Source::Kind::Reg:
        return g.node("launch r " + std::to_string(s.id),
                      "r" + std::to_string(s.id));
      case Source::Kind::Port:
        return g.node("launch p " + std::to_string(s.id), portDisplay(d, s.id));
      case Source::Kind::Const:
        return g.node(fmt("launch c %lld w%d", (long long)s.imm, s.rootWidth),
                      "#" + std::to_string((long long)s.imm));
      case Source::Kind::Fu:
        return fuNode(s.id);
    }
    return g.node("launch ?", "?");
  }

  void build() {
    const double setup = d.lib.registerSetupDelay();
    // Instantiate every active unit even if nothing captures it.
    for (const FuAction& fa : st.fuActions) {
      fuNode(fa.fu);
      if (fa.cycles > 1) {
        // A multicycle issue latches its first internal stage this cycle.
        const int cap = g.node("cap stage " + std::to_string(fa.fu),
                               "fu" + std::to_string(fa.fu) + " stage");
        g.edge(fuNode(fa.fu), cap, setup);
        g.markEndpoint(cap);
      }
    }
    for (const RegAction& ra : st.regActions) {
      if (ra.reg < 0 || (std::size_t)ra.reg >= d.ic.regInput.size()) continue;
      const MuxSpec& m = d.ic.regInput[(std::size_t)ra.reg];
      if (ra.muxSel < 0 || ra.muxSel >= m.legs()) continue;
      const int mux = g.node("mux r " + std::to_string(ra.reg),
                             "mux r" + std::to_string(ra.reg));
      g.edge(sourceNode(m.sources[(std::size_t)ra.muxSel]), mux,
             d.lib.muxDelay(m.legs()));
      const int cap = g.node("cap r " + std::to_string(ra.reg),
                             "r" + std::to_string(ra.reg));
      g.edge(mux, cap, setup);
      g.markEndpoint(cap);
    }
    for (const PortAction& pa : st.portActions) {
      if (pa.port < 0 || (std::size_t)pa.port >= d.ic.outPortInput.size())
        continue;
      const MuxSpec& m = d.ic.outPortInput[(std::size_t)pa.port];
      if (pa.muxSel < 0 || pa.muxSel >= m.legs()) continue;
      const int mux = g.node("mux p " + std::to_string(pa.port),
                             "mux " + portDisplay(d, pa.port));
      g.edge(sourceNode(m.sources[(std::size_t)pa.muxSel]), mux,
             d.lib.muxDelay(m.legs()));
      const int cap = g.node("cap p " + std::to_string(pa.port),
                             portDisplay(d, pa.port));
      g.edge(mux, cap, setup);
      g.markEndpoint(cap);
    }
    // FSM next-state logic: the state register loads every cycle; a
    // conditional transition extends the path through the condition.
    const int fsm = g.node("cap fsm", "fsm");
    g.raiseInit(fsm, setup);
    g.markEndpoint(fsm);
    if (st.conditional) g.edge(sourceNode(st.cond), fsm, setup);
  }
};

/// Builds the state-oblivious (structural) graph: every mux leg is
/// assumed combinable with every other, every FU is a flat full-delay
/// cone, every capture point and every condition in the whole controller
/// participates. This is what a mode-blind netlist STA would see.
struct StructuralGraphBuilder {
  const RtlDesign& d;
  Graph& g;

  int fuNode(int f) { return g.node("fu " + std::to_string(f), fuDisplay(d, f)); }

  int sourceNode(const Source& s) {
    switch (s.kind) {
      case Source::Kind::Reg:
        return g.node("launch r " + std::to_string(s.id),
                      "r" + std::to_string(s.id));
      case Source::Kind::Port:
        return g.node("launch p " + std::to_string(s.id), portDisplay(d, s.id));
      case Source::Kind::Const:
        return g.node(fmt("launch c %lld w%d", (long long)s.imm, s.rootWidth),
                      "#" + std::to_string((long long)s.imm));
      case Source::Kind::Fu:
        return fuNode(s.id);
    }
    return g.node("launch ?", "?");
  }

  void feedMux(const MuxSpec& m, int mux) {
    for (const Source& s : m.sources)
      g.edge(sourceNode(s), mux, d.lib.muxDelay(m.legs()));
  }

  void build() {
    const double setup = d.lib.registerSetupDelay();
    for (int f = 0; f < (int)d.binding.fus.size(); ++f) {
      const FuInstance& fu = d.binding.fus[(std::size_t)f];
      const double full = d.lib.component(fu.comp).delay(fu.width);
      const int id = fuNode(f);
      g.raiseInit(id, full);
      for (int p = 0; p < 3; ++p) {
        const MuxSpec& m = d.ic.fuInput[(std::size_t)f][(std::size_t)p];
        if (m.legs() == 0) continue;
        const int mux = g.node(fmt("mux fu %d.%d", f, p),
                               fmt("mux fu%d.in%d", f, p));
        feedMux(m, mux);
        g.edge(mux, id, full);
      }
    }
    for (int r = 0; r < (int)d.ic.regInput.size(); ++r) {
      const MuxSpec& m = d.ic.regInput[(std::size_t)r];
      if (m.legs() == 0) continue;
      const int mux = g.node("mux r " + std::to_string(r),
                             "mux r" + std::to_string(r));
      feedMux(m, mux);
      const int cap = g.node("cap r " + std::to_string(r),
                             "r" + std::to_string(r));
      g.edge(mux, cap, setup);
      g.markEndpoint(cap);
    }
    for (int p = 0; p < (int)d.ic.outPortInput.size(); ++p) {
      const MuxSpec& m = d.ic.outPortInput[(std::size_t)p];
      if (m.legs() == 0) continue;
      const int mux = g.node("mux p " + std::to_string(p),
                             "mux " + portDisplay(d, p));
      feedMux(m, mux);
      const int cap = g.node("cap p " + std::to_string(p), portDisplay(d, p));
      g.edge(mux, cap, setup);
      g.markEndpoint(cap);
    }
    const int fsm = g.node("cap fsm", "fsm");
    g.raiseInit(fsm, setup);
    g.markEndpoint(fsm);
    for (const CtrlState& st : d.ctrl.states)
      if (st.conditional) g.edge(sourceNode(st.cond), fsm, setup);
  }
};

std::vector<char> reachableStates(const Controller& ctrl) {
  std::vector<char> seen(ctrl.states.size(), 0);
  std::vector<std::size_t> work;
  auto visit = [&](StateId s) {
    if (s.valid() && s.index() < seen.size() && !seen[s.index()]) {
      seen[s.index()] = 1;
      work.push_back(s.index());
    }
  };
  visit(ctrl.initial);
  while (!work.empty()) {
    const CtrlState& st = ctrl.states[work.back()];
    work.pop_back();
    visit(st.next);
    visit(st.nextTaken);
    visit(st.nextNot);
  }
  return seen;
}

TimingPath extractPath(const Graph& g, int endpoint, const CtrlState& st,
                       const std::string& desc, double clock) {
  TimingPath p;
  p.state = (int)st.id.get();
  p.stateDesc = desc;
  std::vector<int> chain;
  for (int n = endpoint; n != -1; n = g.nodes[(std::size_t)n].pred)
    chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Graph::Node& n = g.nodes[(std::size_t)chain[i]];
    PathPoint pt;
    pt.node = n.display;
    // First point: a launch arrives at its init (0 for registers/ports,
    // the final stage delay for a busy multicycle unit).
    pt.incr = i == 0 ? n.init : n.predIncr;
    pt.arrival = n.arrival;
    p.points.push_back(std::move(pt));
  }
  p.startpoint = p.points.front().node;
  p.endpoint = p.points.back().node;
  p.arrival = g.nodes[(std::size_t)endpoint].arrival;
  p.required = clock;
  p.slack = clock - p.arrival;
  return p;
}

}  // namespace

std::string TimingPath::describe() const {
  std::string s = fmt("slack %+.3f (state %d, %s): ", slack, state,
                      stateDesc.c_str());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i) s += " -> ";
    s += points[i].node;
  }
  s += fmt("  [arrival %.3f, required %.3f]", arrival, required);
  return s;
}

StaResult runSta(const RtlDesign& design, const StaOptions& options) {
  double seconds = 0;
  StaResult r;
  {
    obs::TraceSpan span("sta.run", "", &seconds);

    r.estimatedCycleTime = estimateTiming(design).cycleTime;
    r.clockWasEstimated = options.clockNs <= 0;
    r.clockNs = r.clockWasEstimated ? r.estimatedCycleTime : options.clockNs;
    r.totalStates = design.ctrl.states.size();

    const std::vector<char> reach = reachableStates(design.ctrl);
    for (char c : reach) r.reachableStates += (c != 0);

    // Worst state-aware arrival per endpoint key, for false-path counting
    // against the structural graph.
    std::map<std::string, double> awareWorst;
    std::vector<TimingPath> allPaths;

    {
      obs::TraceSpan gs("sta.graph");
      for (const CtrlState& st : design.ctrl.states) {
        if (!reach[st.id.index()]) continue;
        Graph g;
        StateGraphBuilder{design, st, g}.build();
        if (!g.relax()) r.combLoop = true;
        const std::string desc = stateDesc(design, st);
        double stateWorst = 0;
        for (const auto& [key, id] : g.index) {
          const Graph::Node& n = g.nodes[(std::size_t)id];
          if (!n.endpoint) continue;
          r.endpointCount += 1;
          stateWorst = std::max(stateWorst, n.arrival);
          auto [it, inserted] = awareWorst.emplace(key, n.arrival);
          if (!inserted) it->second = std::max(it->second, n.arrival);
          if (n.arrival > r.cycleTime) {
            r.cycleTime = n.arrival;
            r.criticalState = (int)st.id.get();
          }
          allPaths.push_back(extractPath(g, id, st, desc, r.clockNs));
        }
        r.stateArrivals.emplace_back((int)st.id.index(), stateWorst);
      }
    }
    r.worstSlack = r.clockNs - r.cycleTime;

    {
      obs::TraceSpan ss("sta.structural");
      Graph g;
      StructuralGraphBuilder{design, g}.build();
      if (!g.relax()) r.combLoop = true;
      for (const auto& [key, id] : g.index) {
        const Graph::Node& n = g.nodes[(std::size_t)id];
        if (!n.endpoint) continue;
        r.structuralCycleTime = std::max(r.structuralCycleTime, n.arrival);
        const auto it = awareWorst.find(key);
        const double aware = it == awareWorst.end() ? -1.0 : it->second;
        if (n.arrival > aware + 1e-9) r.falsePathEndpoints += 1;
      }
    }

    std::stable_sort(allPaths.begin(), allPaths.end(),
                     [](const TimingPath& a, const TimingPath& b) {
                       if (a.slack != b.slack) return a.slack < b.slack;
                       if (a.state != b.state) return a.state < b.state;
                       return a.endpoint < b.endpoint;
                     });
    if (options.maxPaths >= 0 && allPaths.size() > (std::size_t)options.maxPaths)
      allPaths.resize((std::size_t)options.maxPaths);
    r.paths = std::move(allPaths);
  }

  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("sta.runs").add(1);
  metrics.histogram("sta.seconds").observe(seconds);
  metrics.histogram("sta.endpoints").observe((double)r.endpointCount);
  metrics.gauge("sta.cycle_time").set(r.cycleTime);
  metrics.gauge("sta.worst_slack").set(r.worstSlack);
  return r;
}

json::Node staReportJson(const std::string& key, const std::string& name,
                         const StaResult& r) {
  json::Node j = json::Node::object();
  j[key] = name;
  j["clock_ns"] = r.clockNs;
  j["clock_estimated"] = r.clockWasEstimated;
  j["estimated_cycle_time"] = r.estimatedCycleTime;
  j["cycle_time"] = r.cycleTime;
  j["worst_slack"] = r.worstSlack;
  j["critical_state"] = r.criticalState;
  j["states"] = r.totalStates;
  j["reachable_states"] = r.reachableStates;
  j["endpoints"] = r.endpointCount;
  j["structural_cycle_time"] = r.structuralCycleTime;
  j["false_path_endpoints"] = r.falsePathEndpoints;
  j["comb_loop"] = r.combLoop;
  json::Node paths = json::Node::array();
  for (const TimingPath& p : r.paths) {
    json::Node pj = json::Node::object();
    pj["state"] = p.state;
    pj["state_desc"] = p.stateDesc;
    pj["startpoint"] = p.startpoint;
    pj["endpoint"] = p.endpoint;
    pj["arrival"] = p.arrival;
    pj["required"] = p.required;
    pj["slack"] = p.slack;
    json::Node pts = json::Node::array();
    for (const PathPoint& pt : p.points) {
      json::Node tj = json::Node::object();
      tj["node"] = pt.node;
      tj["incr"] = pt.incr;
      tj["arrival"] = pt.arrival;
      pts.push(std::move(tj));
    }
    pj["points"] = std::move(pts);
    paths.push(std::move(pj));
  }
  j["paths"] = std::move(paths);
  return j;
}

}  // namespace mphls::sta
