// The benchmark's own tests: self time on a hand-built span tree, the
// tail-percentile sample rule, growth exponents, and the metric tables
// against BENCHMARK.json.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/json_reader.h"
#include "report.h"
#include "spans.h"
#include "stats.h"

namespace {

using mphls::obs::TraceEvent;
using mphls::obs::Tracer;

TraceEvent ev(const std::string& name, char phase, double us) {
  TraceEvent e;
  e.name = name;
  e.phase = phase;
  e.tsMicros = us;
  return e;
}

// bench.program [0, 100] us
//   frontend.compile [10, 40]
//     opt.pipeline [20, 35]
//   stage.check [50, 90]
//     sta.run [60, 80]
//   replay [92, 98]
//     alloc.fu [93, 97]
// plus a worker track: dse.point [30, 70] with stage.schedule [40, 60].
std::vector<Tracer::TrackSnapshot> handBuiltTracks() {
  Tracer::TrackSnapshot main;
  main.tid = 1;
  main.events = {ev("bench.program", 'B', 0),  ev("frontend.compile", 'B', 10),
                 ev("opt.pipeline", 'B', 20),  ev("opt.pipeline", 'E', 35),
                 ev("frontend.compile", 'E', 40), ev("stage.check", 'B', 50),
                 ev("sta.run", 'B', 60),       ev("sta.run", 'E', 80),
                 ev("stage.check", 'E', 90),   ev("replay", 'B', 92),
                 ev("alloc.fu", 'B', 93),      ev("alloc.fu", 'E', 97),
                 ev("replay", 'E', 98),        ev("bench.program", 'E', 100)};
  Tracer::TrackSnapshot worker;
  worker.tid = 2;
  worker.events = {ev("dse.point", 'B', 30), ev("stage.schedule", 'B', 40),
                   ev("stage.schedule", 'E', 60), ev("dse.point", 'E', 70)};
  return {main, worker};
}

TEST(PerfbenchSpans, SelfTimeSubtractsDirectChildren) {
  const auto spans = perfbench::collectSpans(handBuiltTracks());
  ASSERT_EQ(spans.size(), 9u);
  std::map<std::string, double> self;
  for (const auto& s : spans) self[s.name] = s.self * 1e6;
  EXPECT_NEAR(self["bench.program"], 100 - 30 - 40 - 6, 1e-6);
  EXPECT_NEAR(self["frontend.compile"], 30 - 15, 1e-6);
  EXPECT_NEAR(self["opt.pipeline"], 15, 1e-6);
  EXPECT_NEAR(self["stage.check"], 40 - 20, 1e-6);
  EXPECT_NEAR(self["sta.run"], 20, 1e-6);
  EXPECT_NEAR(self["replay"], 6 - 4, 1e-6);
  EXPECT_NEAR(self["dse.point"], 40 - 20, 1e-6);
  for (const auto& s : spans)
    EXPECT_EQ(s.replay, s.name == "replay" || s.name == "alloc.fu") << s.name;
}

TEST(PerfbenchSpans, LayerSplitKeepsReplaysApartAndMeasuresCoverage) {
  const auto spans = perfbench::collectSpans(handBuiltTracks());
  const auto main = perfbench::splitLayers(spans, 0, 100e-6);
  EXPECT_NEAR(main.self.at("lang") * 1e6, 15, 1e-6);
  EXPECT_NEAR(main.self.at("opt") * 1e6, 15, 1e-6);
  EXPECT_NEAR(main.self.at("check") * 1e6, 20, 1e-6);
  EXPECT_NEAR(main.self.at("sta") * 1e6, 20, 1e-6);
  EXPECT_NEAR(main.self.at("core") * 1e6, 20, 1e-6);
  EXPECT_NEAR(main.self.at("sched") * 1e6, 20, 1e-6);
  EXPECT_EQ(main.self.count("alloc.fu"), 0u);
  // Layer spans cover [10, 90] across both tracks; the wrapper
  // bench.program is not a layer and the replay is not the workload.
  EXPECT_NEAR(main.covered * 1e6, 80, 1e-6);
  const auto replay = perfbench::splitLayers(spans, 0, 100e-6, true);
  EXPECT_NEAR(replay.self.at("alloc.fu") * 1e6, 4, 1e-6);
}

TEST(PerfbenchSpans, UnclosedSpansAreDropped) {
  Tracer::TrackSnapshot t;
  t.tid = 1;
  t.events = {ev("stage.check", 'B', 0), ev("sta.run", 'B', 1),
              ev("sta.run", 'E', 2)};
  const auto spans = perfbench::collectSpans({t});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "sta.run");
  EXPECT_EQ(spans[0].parent, -1);
}

TEST(PerfbenchStats, TailPercentileKeepsTenSamplesBeyond) {
  // p99 of n samples keeps n - ceil(0.99 n) samples beyond it.
  EXPECT_EQ(perfbench::samplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(perfbench::tailIsBacked(1000, 0.99));
  EXPECT_FALSE(perfbench::tailIsBacked(999, 0.99));
  EXPECT_EQ(perfbench::samplesBeyond(100, 0.9), 10u);
  EXPECT_TRUE(perfbench::tailIsBacked(100, 0.9));
  EXPECT_FALSE(perfbench::tailIsBacked(99, 0.9));

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const double p99 = perfbench::percentile(v, 0.99);
  EXPECT_EQ(p99, 990);
  long beyond = 0;
  for (double x : v) beyond += x > p99;
  EXPECT_EQ(beyond, 10);
  EXPECT_EQ(perfbench::percentile(v, 0.5), 500);
  EXPECT_EQ(perfbench::median({3, 1, 2, 10}), 2.5);
}

TEST(PerfbenchStats, LogLogSlopeRecoversTheExponent) {
  std::vector<std::pair<double, double>> xy;
  for (double n : {50.0, 100.0, 200.0, 400.0})
    xy.emplace_back(n, 0.003 * std::pow(n, 2.5));
  EXPECT_NEAR(perfbench::logLogSlope(xy), 2.5, 1e-9);
  EXPECT_EQ(perfbench::logLogSlope({{10, 1}}), 0);
}

std::vector<std::pair<std::string, std::string>> specMetrics(
    const mphls::json::Node& doc, const char* key) {
  std::vector<std::pair<std::string, std::string>> out;
  const mphls::json::Node* arr = doc.get(key);
  if (arr == nullptr) return out;
  for (const auto& m : arr->items())
    out.emplace_back(m->getString("name"), m->getString("unit"));
  return out;
}

std::vector<std::pair<std::string, std::string>> tableMetrics(
    const std::vector<perfbench::MetricSpec>& t) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : t) out.emplace_back(m.name, m.unit);
  return out;
}

TEST(PerfbenchReport, MetricNamesMatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_SPEC);
  ASSERT_TRUE(in) << PERFBENCH_SPEC;
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = mphls::json::parse(ss.str());
  ASSERT_TRUE(doc && doc->isObject());
  EXPECT_EQ(specMetrics(*doc, "end_to_end"),
            tableMetrics(perfbench::endToEndMetrics()));
  EXPECT_EQ(specMetrics(*doc, "per_layer"),
            tableMetrics(perfbench::perLayerMetrics()));
}

TEST(PerfbenchReport, ResultLineCarriesEveryMetricOfTheTable) {
  perfbench::RunResult r;
  for (const auto& m : perfbench::endToEndMetrics()) r.metrics[m.name] = 1.5;
  r.attempted = 10;
  const std::string line =
      perfbench::resultJson(r, perfbench::endToEndMetrics());
  const auto doc = mphls::json::parse(line);
  ASSERT_TRUE(doc);
  EXPECT_TRUE(doc->getBool("correct"));
  EXPECT_EQ(doc->getNumber("attempted"), 10);
  EXPECT_EQ(doc->get("metrics")->members().size(),
            perfbench::endToEndMetrics().size());
  r.metrics.erase("setup_s");
  EXPECT_THROW((void)perfbench::resultJson(r, perfbench::endToEndMetrics()),
               std::logic_error);
  r.metrics["setup_s"] = 1;
  r.failed = 1;
  EXPECT_FALSE(mphls::json::parse(perfbench::resultJson(
                                      r, perfbench::endToEndMetrics()))
                   ->getBool("correct"));
}

}  // namespace
