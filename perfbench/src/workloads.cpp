#include "workloads.h"

#include "alloc/interconnect.h"
#include "alloc/lifetime.h"
#include "obs/trace.h"
#include "stats.h"

namespace perfbench {

double nowSeconds() { return mphls::obs::Tracer::global().nowMicros() / 1e6; }

double medianSetupSeconds(int reps, const std::function<void()>& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = nowSeconds();
    f();
    t.push_back(nowSeconds() - t0);
  }
  return median(t);
}

void fillLayerMetrics(RunResult& r, const LayerSplit& main,
                      const LayerSplit& replay, double wall) {
  for (const MetricSpec& m : perLayerMetrics()) r.metrics[m.name] = 0;
  auto self = [](const LayerSplit& s, const char* layer) {
    auto it = s.self.find(layer);
    return it == s.self.end() ? 0.0 : it->second;
  };
  for (const char* layer :
       {"lang", "opt", "core", "sched", "alloc", "ctrl", "estim", "check",
        "sta", "rtl.verilog", "vm.compile", "vm.exec", "fuzz.gen"})
    r.metrics[std::string(layer) + ".s"] = self(main, layer);
  // The golden run is reported inclusive: it is the fuzz layer's oracle
  // phase, whose compile and VM parts also count in lang.s and vm.*.s.
  if (auto it = main.inclusive.find("fuzz.golden"); it != main.inclusive.end())
    r.metrics["fuzz.golden.s"] = it->second;
  for (const char* step : {"lifetime", "reg", "fu", "interconnect"})
    r.metrics[std::string("alloc.") + step + ".s"] =
        self(replay, (std::string("alloc.") + step).c_str());
  r.metrics["wall_s"] = wall;
  r.metrics["unattributed_share"] = wall > 0 ? 1 - main.covered / wall : 0;
}

void startTracing() {
  auto& t = mphls::obs::Tracer::global();
  t.disable();
  t.clear();
  t.enable();
}

std::vector<Span> stopTracing() {
  auto& t = mphls::obs::Tracer::global();
  t.disable();
  std::vector<Span> spans = collectSpans(t.snapshot());
  t.clear();
  return spans;
}

bool replayAllocation(const mphls::RtlDesign& d, mphls::RegAllocMethod reg,
                      mphls::FuAllocMethod fu,
                      const mphls::OpLatencyModel& lat) {
  using mphls::obs::TraceSpan;
  TraceSpan replay("replay", d.fn.name());
  const mphls::HwLibrary lib = mphls::HwLibrary::defaultLibrary();
  mphls::LifetimeInfo lt;
  mphls::RegAssignment regs;
  mphls::FuBinding binding;
  mphls::InterconnectResult ic;
  {
    TraceSpan s("alloc.lifetime");
    lt = mphls::computeLifetimes(d.fn, d.sched, lat);
  }
  {
    TraceSpan s("alloc.reg");
    regs = mphls::allocateRegisters(lt, reg);
  }
  {
    TraceSpan s("alloc.fu");
    binding = mphls::allocateFus(d.fn, d.sched, lt, regs, lib, fu, lat);
  }
  {
    TraceSpan s("alloc.interconnect");
    ic = mphls::buildInterconnect(d.fn, d.sched, lt, regs, binding, lib, lat);
  }
  return lt.items.size() == d.lifetimes.items.size() &&
         lt.totalSteps == d.lifetimes.totalSteps &&
         regs.numRegs == d.regs.numRegs &&
         regs.regOfItem == d.regs.regOfItem &&
         binding.fuOfOp == d.binding.fuOfOp &&
         binding.swappedOfOp == d.binding.swappedOfOp &&
         binding.fus.size() == d.binding.fus.size() &&
         ic.transfers.size() == d.ic.transfers.size() &&
         ic.mux2to1Count == d.ic.mux2to1Count &&
         ic.numBuses == d.ic.numBuses && ic.muxArea == d.ic.muxArea;
}

std::size_t opCount(const mphls::Function& fn) {
  std::size_t n = 0;
  for (const mphls::Block& b : fn.blocks()) n += b.ops.size();
  return n;
}

}  // namespace perfbench
