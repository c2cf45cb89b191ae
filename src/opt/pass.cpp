#include "opt/pass.h"

#include "ir/deps.h"
#include "ir/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mphls {

bool wiringWouldOutliveStore(const Function& fn, const Block& blk,
                             ValueId v) {
  const Op& rdef = fn.defOf(rootValue(fn, v));
  if (rdef.kind != OpKind::LoadVar) return false;
  bool afterLoad = false;
  for (OpId oid : blk.ops) {
    if (oid == rdef.id) {
      afterLoad = true;
      continue;
    }
    const Op& o = fn.op(oid);
    if (afterLoad && o.kind == OpKind::StoreVar && o.var == rdef.var)
      return true;
  }
  return false;
}

std::vector<PassStats> PassManager::run(Function& fn, int maxRounds) {
  obs::TraceSpan pipelineSpan("opt.pipeline", fn.name());
  std::vector<PassStats> stats(passes_.size());
  std::vector<double> seconds(passes_.size(), 0.0);
  for (std::size_t i = 0; i < passes_.size(); ++i)
    stats[i].pass = passes_[i]->name();

  for (int round = 0; round < maxRounds; ++round) {
    int total = 0;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      Function before("");
      if (observer_) before = fn.clone();
      int c;
      {
        obs::TraceSpan span("pass." + stats[i].pass, &seconds[i]);
        c = passes_[i]->run(fn);
      }
      verifyOrThrow(fn);
      if (observer_) observer_(stats[i].pass, before, fn, c);
      stats[i].changes += c;
      if (c > 0) ++stats[i].iterations;
      total += c;
    }
    if (total == 0) break;
  }
  fn.compact();
  verifyOrThrow(fn);

  auto& mr = obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    mr.counter("pass." + stats[i].pass + ".changes")
        .add((std::uint64_t)stats[i].changes);
    mr.histogram("pass." + stats[i].pass + ".seconds").observe(seconds[i]);
  }
  return stats;
}

std::optional<PassManager> PassManager::forLevel(OptLevel level) {
  if (level == OptLevel::None) return std::nullopt;
  return level == OptLevel::Aggressive ? aggressivePipeline()
                                       : standardPipeline();
}

PassManager PassManager::narrowing() {
  PassManager pm;
  pm.add(createNarrowWidthsPass());
  return pm;
}

PassManager PassManager::standardPipeline() {
  PassManager pm;
  pm.add(createForwardingPass())
      .add(createConstFoldPass())
      .add(createStrengthPass())
      .add(createAlgebraicPass())
      .add(createCsePass())
      .add(createDcePass());
  return pm;
}

PassManager PassManager::aggressivePipeline(int maxTrip) {
  PassManager pm;
  pm.add(createUnrollPass(maxTrip))
      .add(createForwardingPass())
      .add(createConstFoldPass())
      .add(createStrengthPass())
      .add(createAlgebraicPass())
      .add(createCsePass())
      .add(createTreeHeightPass())
      .add(createDcePass());
  return pm;
}

void optimize(Function& fn, OptLevel level, bool narrow) {
  if (auto pm = PassManager::forLevel(level)) pm->run(fn);
  if (narrow) PassManager::narrowing().run(fn);
}

}  // namespace mphls
