// End-to-end integration tests: full synthesis of every built-in design
// under a matrix of configurations, with the synthesized RTL structure
// verified cycle-accurately against the behavioral specification — the
// strongest form of the paper's Section 4 "design verification" that can
// be run per commit.
#include <gtest/gtest.h>

#include <cmath>

#include "core/designs.h"
#include "core/dse.h"
#include "core/synthesizer.h"
#include "ir/interp.h"
#include "rtl/rtlsim.h"
#include "rtl/verilog.h"

namespace mphls {
namespace {

// --------------------------------------------------- configuration matrix

struct Config {
  const char* name;
  SynthesisOptions opts;
};

std::vector<Config> configMatrix() {
  std::vector<Config> out;
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::Serial;
    o.opt = OptLevel::None;
    out.push_back({"serial-noopt", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::List;
    o.resources = ResourceLimits::universalSet(1);
    out.push_back({"list-1fu", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::List;
    o.resources = ResourceLimits::universalSet(2);
    out.push_back({"list-2fu", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::List;
    o.resources = ResourceLimits::universalSet(3);
    o.opt = OptLevel::Aggressive;
    o.fuMethod = FuAllocMethod::GreedyGlobal;
    o.regMethod = RegAllocMethod::Clique;
    out.push_back({"list-3fu-aggressive", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::Asap;
    o.resources = ResourceLimits::universalSet(2);
    out.push_back({"asap-2fu", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::Freedom;
    out.push_back({"freedom", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::Transform;
    o.resources = ResourceLimits::universalSet(2);
    out.push_back({"transform-2fu", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::ForceDirected;
    out.push_back({"force-directed", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::List;
    o.resources = ResourceLimits::universalSet(2);
    o.fuMethod = FuAllocMethod::Clique;
    o.encoding = StateEncoding::OneHot;
    out.push_back({"list-2fu-clique-onehot", o});
  }
  return out;
}

class EndToEnd
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EndToEnd, RtlMatchesBehavior) {
  const auto& design = designs::all()[(std::size_t)std::get<0>(GetParam())];
  const Config cfg = configMatrix()[(std::size_t)std::get<1>(GetParam())];

  Synthesizer synth(cfg.opts);
  SynthesisResult r = synth.synthesizeSource(design.source);

  // Primary stimulus.
  EXPECT_EQ(verifyAgainstBehavior(r, design.sampleInputs), "")
      << design.name << " under " << cfg.name;

  // A few derived stimuli (perturbed inputs) for extra coverage.
  std::uint64_t seed = 12345;
  for (int trial = 0; trial < 3; ++trial) {
    auto inputs = design.sampleInputs;
    for (auto& [k, v] : inputs) {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      v = std::max<std::uint64_t>(1, (v + (seed >> 56)) & 0x3FF);
    }
    EXPECT_EQ(verifyAgainstBehavior(r, inputs), "")
        << design.name << " under " << cfg.name << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EndToEnd,
    ::testing::Combine(
        ::testing::Range(0, (int)designs::all().size()),
        ::testing::Range(0, (int)configMatrix().size())),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      std::string n = designs::all()[(std::size_t)std::get<0>(info.param)].name;
      n += "_";
      n += configMatrix()[(std::size_t)std::get<1>(info.param)].name;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

// ----------------------------------------------------------- cycle counts

TEST(Integration, RtlCycleCountMatchesScheduleSteps) {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(2);
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(designs::sqrtSource());

  RtlSimulator sim(r.design);
  auto rtl = sim.run({{"x", 2048}});
  ASSERT_TRUE(rtl.finished);
  EXPECT_EQ(rtl.cycles, r.latencyFor({{"x", 2048}}));
  // Fig. 2's ten steps.
  EXPECT_EQ(rtl.cycles, 10);
}

TEST(Integration, SqrtComputesSquareRoots) {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(2);
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(designs::sqrtSource());
  RtlSimulator sim(r.design);
  for (double xv : {0.0625, 0.125, 0.25, 0.5, 0.75, 1.0}) {
    auto raw = (std::uint64_t)(xv * 4096.0);
    auto res = sim.run({{"x", raw}});
    ASSERT_TRUE(res.finished);
    double got = (double)res.outputs.at("y") / 4096.0;
    EXPECT_NEAR(got, std::sqrt(xv), 0.01) << "x=" << xv;
  }
}

TEST(Integration, GcdComputesGcd) {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(1);
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(designs::gcdSource());
  RtlSimulator sim(r.design);
  struct Case {
    std::uint64_t a, b, g;
  };
  for (const Case& c : {Case{1071, 462, 21}, Case{12, 18, 6}, Case{7, 13, 1},
                        Case{100, 0, 100}}) {
    auto res = sim.run({{"a0", c.a}, {"b0", c.b}});
    ASSERT_TRUE(res.finished);
    EXPECT_EQ(res.outputs.at("g"), c.g) << c.a << "," << c.b;
  }
}

TEST(Integration, DiffeqMatchesReferenceEuler) {
  Synthesizer synth{SynthesisOptions{}};
  SynthesisResult r = synth.synthesizeSource(designs::diffeqSource());
  // Reference: the behavioral interpreter is the spec; RTL must agree.
  EXPECT_EQ(verifyAgainstBehavior(
                r, {{"x0", 0}, {"y0", 256}, {"u0", 256}, {"dx", 32},
                    {"a", 256}}),
            "");
}

TEST(Integration, VerifyReportsAMissingInput) {
  // An unset input port is that run's verify failure, not an abort; an
  // input the design does not have is ignored.
  Synthesizer synth{SynthesisOptions{}};
  SynthesisResult r = synth.synthesizeSource(designs::sqrtSource());
  EXPECT_EQ(verifyAgainstBehavior(r, {{"zz", 1}}), "missing input 'x'");
  EXPECT_EQ(verifyAgainstBehavior(r, {{"x", 2048}, {"zz", 1}}), "");
}

// ------------------------------------------------------------- estimation

TEST(Integration, MoreUnitsMoreAreaFewerSteps) {
  auto points = exploreResourceSweep(designs::fir8Source(), 4);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_GE(points[0].latencySteps, points[3].latencySteps);
  EXPECT_LT(points[0].area, points[3].area + 1e9);  // areas are positive
  for (const auto& p : points) {
    EXPECT_GT(p.area, 0);
    EXPECT_GT(p.cycleTime, 0);
  }
}

TEST(Integration, ParetoMarksExtremes) {
  auto points = exploreResourceSweep(designs::fir8Source(), 4);
  // The fastest point and the smallest point are Pareto by construction.
  int minLat = INT32_MAX;
  double minArea = 1e18;
  for (const auto& p : points) {
    minLat = std::min(minLat, p.latencySteps);
    minArea = std::min(minArea, p.area);
  }
  for (const auto& p : points) {
    if (p.latencySteps == minLat && p.area <= minArea + 1e-9) {
      EXPECT_TRUE(p.pareto);
    }
  }
  int paretoCount = 0;
  for (const auto& p : points) paretoCount += p.pareto ? 1 : 0;
  EXPECT_GE(paretoCount, 1);
}

TEST(Integration, ChippeStopsWhenTargetMet) {
  auto probe = exploreResourceSweep(designs::fir8Source(), 4);
  int target = probe[2].latencySteps;  // achievable with 3 FUs
  auto points = chippeIterate(designs::fir8Source(), target, 8);
  ASSERT_FALSE(points.empty());
  EXPECT_LE(points.back().latencySteps, target);
  EXPECT_LE((int)points.size(), 4);
}

TEST(Integration, TimeSweepTradesAreaForTime) {
  auto points = exploreTimeSweep(designs::fir8Source(), 3);
  ASSERT_EQ(points.size(), 4u);
  // Longer schedules should never need more functional-unit area.
  EXPECT_LE(points.back().area, points.front().area + 1e-9);
}

// --------------------------------------------------------------- verilog

TEST(Integration, VerilogEmitsWellFormedModule) {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(2);
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(designs::sqrtSource());
  std::string v = emitVerilog(r.design);
  EXPECT_NE(v.find("module sqrt"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("input wire clk"), std::string::npos);
  EXPECT_NE(v.find("out_y"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  // begin/end balance.
  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = v.find("begin", pos)) != std::string::npos) {
    ++begins;
    pos += 5;
  }
  pos = 0;
  while ((pos = v.find("end", pos)) != std::string::npos) {
    ++ends;
    pos += 3;
  }
  // "end" also matches "endcase"/"endmodule": 2 endcase + 1 endmodule.
  EXPECT_EQ(ends, begins + 3);
}

TEST(Integration, VerilogForEveryDesign) {
  for (const auto& d : designs::all()) {
    SynthesisOptions opts;
    opts.resources = ResourceLimits::universalSet(2);
    Synthesizer synth(opts);
    SynthesisResult r = synth.synthesizeSource(d.source);
    std::string v = emitVerilog(r.design);
    EXPECT_NE(v.find(std::string("module ") + d.name), std::string::npos)
        << d.name;
  }
}

}  // namespace
}  // namespace mphls
