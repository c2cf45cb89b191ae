#include "check/check.h"

#include "rtl/verilog.h"

namespace mphls {

CheckReport checkDesign(const RtlDesign& design, const CheckOptions& options) {
  CheckReport report;
  if (options.semantics) checkSemantics(design.fn, report);
  if (options.schedule)
    checkSchedule(design.fn, design.sched, options.resources,
                  options.latencies, report);
  if (options.binding)
    checkBinding(design.fn, design.sched, design.lifetimes, design.regs,
                 design.binding, design.ic, design.lib, options.latencies,
                 report);
  if (options.controller)
    checkController(design.fn, design.sched, design.ctrl, design.ic,
                    design.binding, options.latencies, report);
  sta::StaResult sta;
  if (options.timing && runTimingAnalysis(design, {}, sta, report))
    checkTiming(design, sta, {}, report);
  if (options.netlist && options.latencies.isUnit())
    lintVerilog(emitVerilog(design), report);
  return report;
}

}  // namespace mphls
