// Parallel design-space exploration and the synthesis-throughput layer:
// IR clone round-trips, thread pool / parallelFor behavior, frontend-cache
// sharing and keying, determinism of the sweeps at every thread count
// (points and emitted Verilog byte-identical), sweep points equal to a
// from-source synthesis under `narrow` and `top`, the time sweep's first
// horizon, stable Pareto marking, and equality of the incremental
// force-directed scheduler with the from-scratch reference. All tests in
// this file share the DseParallel* or ThreadPool* prefix so the
// ThreadSanitizer CI job can select them with its gtest filter.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "core/designs.h"
#include "core/dse.h"
#include "core/frontend_cache.h"
#include "fuzz/bdl_gen.h"
#include "ir/analysis.h"
#include "ir/verify.h"
#include "opt/pass.h"
#include "oracles/force_directed_reference.h"
#include "oracles/synthetic_dfg.h"
#include "rtl/verilog.h"
#include "sched/force_directed.h"
#include "sched/schedule.h"

using namespace mphls;

namespace {

// The Fig. 5 distribution-graph example: a1 -> a2 -> m, a3 off a1.
Function fig5Graph() {
  Function fn("fig5");
  BlockId b = fn.addBlock("entry");
  ValueId va = fn.emitRead(b, fn.addInput("a", 8));
  ValueId vb = fn.emitRead(b, fn.addInput("b", 8));
  ValueId vc = fn.emitRead(b, fn.addInput("c", 8));
  ValueId a1 = fn.emitBinary(b, OpKind::Add, va, vb);
  ValueId a2 = fn.emitBinary(b, OpKind::Add, a1, vc);
  ValueId a3 = fn.emitBinary(b, OpKind::Add, a1, va);
  ValueId m = fn.emitBinary(b, OpKind::Mul, a2, vc);
  fn.emitWrite(b, fn.addOutput("y", 8), m);
  fn.emitWrite(b, fn.addOutput("z", 8), a3);
  fn.setReturn(b);
  return fn;
}

// Deterministic random single-block DFG (xorshift; no global state).
Function randomDfg(int numOps, std::uint64_t seed) {
  Function fn("rand" + std::to_string(seed));
  BlockId b = fn.addBlock("entry");
  std::vector<ValueId> pool;
  for (int i = 0; i < 3; ++i)
    pool.push_back(fn.emitRead(b, fn.addInput("p" + std::to_string(i), 8)));
  std::uint64_t s = seed ? seed : 1;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int i = 0; i < numOps; ++i) {
    ValueId a = pool[next() % pool.size()];
    ValueId c = pool[next() % pool.size()];
    OpKind k = (next() % 3 == 0) ? OpKind::Mul : OpKind::Add;
    pool.push_back(fn.emitBinary(b, k, a, c));
  }
  fn.emitWrite(b, fn.addOutput("y", 8), pool.back());
  fn.setReturn(b);
  return fn;
}

std::string fixture(const std::string& name) {
  std::ifstream in(std::string(MPHLS_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Options for one list-scheduled point with `fus` universal units.
SynthesisOptions listAt(SynthesisOptions opts, int fus) {
  opts.scheduler = SchedulerKind::List;
  opts.resources = ResourceLimits::universalSet(fus);
  return opts;
}

/// Options for one force-directed point under `horizon` steps.
SynthesisOptions forceAt(SynthesisOptions opts, int horizon) {
  opts.scheduler = SchedulerKind::ForceDirected;
  opts.timeConstraint = horizon;
  return opts;
}

/// A sweep point agrees with a from-source synthesis of the same options:
/// latency, area and (when captured) Verilog.
void expectSameDesign(const DsePoint& p, const SynthesisResult& r) {
  EXPECT_EQ(p.latencySteps, r.staticLatency()) << p.label;
  EXPECT_EQ(p.area, r.area.total()) << p.label;
  if (!p.verilog.empty()) {
    EXPECT_EQ(p.verilog, emitVerilog(r.design)) << p.label;
  }
}

std::vector<DsePoint> sweepWithJobs(const char* src, int maxFus, int jobs) {
  SynthesisOptions base;
  base.jobs = jobs;
  base.dseCaptureVerilog = true;
  return exploreResourceSweep(src, maxFus, base);
}

void expectPointsIdentical(const std::vector<DsePoint>& a,
                           const std::vector<DsePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(renderPoints(a), renderPoints(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(samePoint(a[i], b[i])) << "point " << i << " differs";
    EXPECT_FALSE(a[i].verilog.empty());
    EXPECT_EQ(a[i].verilog, b[i].verilog) << "Verilog differs at " << i;
  }
}

}  // namespace

// ------------------------------------------------------------------ clone

TEST(DseParallelClone, DeepCopyIsIndependent) {
  auto cached = FrontendCache::global().get(designs::diffeqSource(), "",
                                            OptLevel::Standard);
  Function copy = cached->clone();
  EXPECT_EQ(verifyFunction(*cached), "");
  EXPECT_EQ(verifyFunction(copy), "");
  EXPECT_EQ(cached->dump(), copy.dump());

  // Mutating the clone must not leak into the cached original.
  const std::string before = cached->dump();
  copy.addVar("clone_only", 8);
  copy.emitNop(copy.entry());
  EXPECT_NE(copy.dump(), before);
  EXPECT_EQ(cached->dump(), before);
  EXPECT_EQ(verifyFunction(*cached), "");
}

TEST(DseParallelClone, AllBuiltinDesignsCloneClean) {
  for (const auto& d : designs::all()) {
    auto cached =
        FrontendCache::global().get(d.source, "", OptLevel::Standard);
    Function copy = cached->clone();
    EXPECT_EQ(verifyFunction(copy), "") << d.name;
    EXPECT_EQ(copy.dump(), cached->dump()) << d.name;
  }
}

// ------------------------------------------------------------- thread pool

TEST(DseParallelPool, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(997);
  parallelFor(4, hits.size(), "test", [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DseParallelPool, SerialBypassRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  // jobs=1, and jobs>1 with a single index: no worker, strictly in order.
  for (auto [jobs, n] : {std::pair{1, std::size_t{5}},
                         std::pair{4, std::size_t{1}}}) {
    std::vector<int> order;
    parallelFor(jobs, n, "test", [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(static_cast<int>(i));
    });
    std::vector<int> expected(n);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected) << "jobs=" << jobs;
  }
}

TEST(DseParallelPool, SelfSchedulingDrainsUnevenLoad) {
  std::atomic<long> sum{0};
  parallelFor(4, 64, "test", [&](std::size_t i) {
    long local = 0;  // index 0 is ~64x the work of index 63
    const long spin = 2000 * static_cast<long>(64 - i);
    for (long k = 0; k < spin; ++k) local += k % 7;
    sum.fetch_add(local % 1000 + static_cast<long>(i));
  });
  EXPECT_GT(sum.load(), 0);
}

TEST(DseParallelPool, ExceptionsPropagateToCaller) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallelFor(2, 8, "test",
                           [&](std::size_t i) {
                             if (i == 3) throw std::runtime_error("boom");
                             ran.fetch_add(1);
                           }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 7);  // every other iteration still ran
}

TEST(DseParallelPool, ResolveJobsSemantics) {
  EXPECT_EQ(resolveJobs(1), 1);
  EXPECT_EQ(resolveJobs(7), 7);
  EXPECT_GE(resolveJobs(0), 1);   // hardware concurrency
  EXPECT_GE(resolveJobs(-3), 1);
}

TEST(ThreadPool, QueuedTasksStartInSubmissionOrder) {
  for (int workers : {1, 2}) {
    std::mutex m;
    std::condition_variable cv;
    int blocked = 0;   // blockers holding a worker
    int released = 0;  // blockers allowed to return
    std::vector<int> order;
    std::vector<int> squares(50, -1);
    {
      ThreadPool pool(workers, "test");
      for (int w = 0; w < workers; ++w)
        pool.submit([&] {
          std::unique_lock<std::mutex> lk(m);
          const int ticket = blocked++;
          cv.notify_all();
          cv.wait(lk, [&] { return released > ticket; });
        });
      {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return blocked == workers; });
      }
      for (int i = 0; i < 8; ++i)
        pool.submit([&, i] {
          std::lock_guard<std::mutex> lk(m);
          order.push_back(i);
          cv.notify_all();
        });
      {
        // Free one worker; it alone drains the queue.
        std::unique_lock<std::mutex> lk(m);
        released = 1;
        cv.notify_all();
        cv.wait(lk, [&] { return order.size() == 8; });
      }
      for (int i = 0; i < 50; ++i)
        pool.submit([&squares, i] { squares[(std::size_t)i] = i * i; });
      {
        std::lock_guard<std::mutex> lk(m);
        released = workers;
      }
      cv.notify_all();
    }  // ~ThreadPool runs whatever is still queued
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
        << workers << " worker(s)";
    for (int i = 0; i < 50; ++i)
      EXPECT_EQ(squares[(std::size_t)i], i * i) << "task " << i;
  }
}

// ---------------------------------------------------------- frontend cache

TEST(DseParallelCache, SharesOneCompiledFunction) {
  FrontendCache cache;
  auto a = cache.get(designs::gcdSource(), "", OptLevel::Standard);
  auto b = cache.get(designs::gcdSource(), "", OptLevel::Standard);
  EXPECT_EQ(a.get(), b.get());  // same cached object
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // A different optimization level is a different design.
  auto c = cache.get(designs::gcdSource(), "", OptLevel::None);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DseParallelCache, NarrowIsPartOfTheKey) {
  FrontendCache cache;
  const std::string src = designs::sqrtSource();
  auto plain = cache.get(src, "", OptLevel::Standard);
  auto narrowed = cache.get(src, "", OptLevel::Standard, true);
  EXPECT_NE(plain.get(), narrowed.get());
  EXPECT_NE(plain->dump(), narrowed->dump());
  EXPECT_EQ(cache.get(src, "", OptLevel::Standard, true).get(),
            narrowed.get());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  // The cached IR is the unoptimized entry run through optimize().
  for (OptLevel opt :
       {OptLevel::None, OptLevel::Standard, OptLevel::Aggressive}) {
    Function fn = cache.get(src, "", OptLevel::None)->clone();
    optimize(fn, opt, true);
    EXPECT_EQ(cache.get(src, "", opt, true)->dump(), fn.dump());
  }
}

TEST(DseParallelCache, ConcurrentGetsAreSafe) {
  FrontendCache cache;
  std::vector<std::shared_ptr<const Function>> got(32);
  parallelFor(4, got.size(), "test", [&](std::size_t i) {
    got[i] = cache.get(designs::ewfSource(), "", OptLevel::Standard);
  });
  for (const auto& fn : got) {
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->dump(), got[0]->dump());
  }
}

// ------------------------------------------------- deterministic sweeps

TEST(DseParallelSweep, ResourceSweepIdenticalAcrossJobCounts) {
  auto serial = sweepWithJobs(designs::diffeqSource(), 8, 1);
  auto parallel = sweepWithJobs(designs::diffeqSource(), 8, 4);
  expectPointsIdentical(serial, parallel);
}

TEST(DseParallelSweep, ResourceSweepRecordsDiagnostics) {
  auto points = sweepWithJobs(designs::diffeqSource(), 4, 4);
  for (const auto& p : points) EXPECT_GT(p.wallSeconds, 0.0);
}

TEST(DseParallelSweep, TimeSweepIdenticalAcrossJobCounts) {
  SynthesisOptions base;
  base.dseCaptureVerilog = true;
  base.jobs = 1;
  auto serial = exploreTimeSweep(designs::diffeqSource(), 4, base);
  base.jobs = 4;
  auto parallel = exploreTimeSweep(designs::diffeqSource(), 4, base);
  expectPointsIdentical(serial, parallel);
}

TEST(DseParallelSweep, ChippeIdenticalAcrossJobCounts) {
  auto probe = sweepWithJobs(designs::ewfSource(), 4, 1);
  const int target = probe[2].latencySteps;
  SynthesisOptions base;
  base.dseCaptureVerilog = true;
  base.jobs = 1;
  auto serial = chippeIterate(designs::ewfSource(), target, 8, base);
  base.jobs = 4;
  auto parallel = chippeIterate(designs::ewfSource(), target, 8, base);
  expectPointsIdentical(serial, parallel);
}

TEST(DseParallelSweep, ChippeStopsAtTheSameBudgetAtEveryJobCount) {
  // Batches of `jobs` budgets are judged in order, so every stop — met at
  // the first budget, met mid-way, or never met — and every batch edge
  // (fewer budgets left than workers) must reproduce the serial points.
  for (const auto& d : designs::all()) {
    const auto probe = sweepWithJobs(d.source, 3, 1);
    for (int target : {probe[0].latencySteps, probe[2].latencySteps, 0}) {
      for (int maxFus : {1, 5, 8}) {
        SynthesisOptions base;
        base.dseCaptureVerilog = true;
        base.jobs = 1;
        const auto serial = chippeIterate(d.source, target, maxFus, base);
        ASSERT_FALSE(serial.empty());
        for (int jobs : {2, 3, 4, 8}) {
          SCOPED_TRACE(std::string(d.name) + " target=" +
                       std::to_string(target) + " maxFus=" +
                       std::to_string(maxFus) + " jobs=" +
                       std::to_string(jobs));
          base.jobs = jobs;
          expectPointsIdentical(
              serial, chippeIterate(d.source, target, maxFus, base));
        }
      }
    }
  }
}

TEST(DseParallelSweep, NarrowedSweepsMatchTheSynthesizer) {
  const std::string src = designs::sqrtSource();
  SynthesisOptions base;
  base.narrow = true;
  base.dseCaptureVerilog = true;
  base.jobs = 2;
  const SynthesisResult one =
      Synthesizer(listAt(base, 1)).synthesizeSource(src);
  SynthesisOptions plain = base;
  plain.narrow = false;
  // Narrowing changes this design, so an un-narrowed point cannot pass.
  ASSERT_NE(one.area.total(),
            Synthesizer(listAt(plain, 1)).synthesizeSource(src).area.total());

  expectSameDesign(exploreResourceSweep(src, 2, base).at(0), one);
  expectSameDesign(chippeIterate(src, 0, 2, base).at(0), one);
  const DsePoint first = exploreTimeSweep(src, 0, base).at(0);
  expectSameDesign(
      first, Synthesizer(forceAt(base, first.limit)).synthesizeSource(src));
}

TEST(DseParallelSweep, TopSelectsTheSweptProcedure) {
  const std::string src = fixture("two_procs.bdl");
  SynthesisOptions base;
  base.dseCaptureVerilog = true;
  base.jobs = 2;
  const SynthesisResult a =
      Synthesizer(listAt(base, 1)).synthesizeSource(src, "a");
  ASSERT_EQ(a.design.fn.name(), "a");
  // Without `top` the last procedure, b, is the design.
  ASSERT_NE(a.area.total(), exploreResourceSweep(src, 1, base).at(0).area);

  expectSameDesign(exploreResourceSweep(src, 2, base, "a").at(0), a);
  expectSameDesign(chippeIterate(src, 100, 2, base, "a").at(0), a);
  const DsePoint first = exploreTimeSweep(src, 0, base, "a").at(0);
  expectSameDesign(
      first,
      Synthesizer(forceAt(base, first.limit)).synthesizeSource(src, "a"));
}

TEST(DseParallelSweep, TimeSweepStartsAtForceDirectedLength) {
  // The sweep's first horizon is the longest block of a full
  // unconstrained force-directed synthesis. Seeds 4 and 96 generate
  // designs where that exceeds the longest critical path.
  std::vector<std::string> sources;
  for (const auto& d : designs::all()) sources.emplace_back(d.source);
  for (std::uint64_t seed : {4u, 96u})
    sources.push_back(fuzz::generateProgram(seed).render());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string& src = sources[i];
    const SynthesisResult r =
        Synthesizer(forceAt({}, 0)).synthesizeSource(src);
    int longest = 0;
    for (const auto& bs : r.design.sched.blocks)
      longest = std::max(longest, bs.numSteps);
    SynthesisOptions base;
    base.jobs = 1;
    EXPECT_EQ(exploreTimeSweep(src, 0, base).at(0).label,
              std::to_string(longest) + " steps")
        << src;
    if (i < designs::all().size()) continue;
    int critical = 0;
    const Function& fn = r.design.fn;
    for (const auto& blk : fn.blocks())
      critical = std::max(critical,
                          computeLevels(BlockDeps(fn, blk)).criticalLength);
    EXPECT_GT(longest, critical) << src;
  }
}

TEST(DseParallelSweep, TimeSweepRejectsMulticycleLatency) {
  SynthesisOptions base;
  base.latencies = OpLatencyModel::multiCycle();
  base.jobs = 1;
  EXPECT_THROW((void)exploreTimeSweep(designs::diffeqSource(), 1, base),
               InternalError);
}

TEST(DseParallelSweep, MatchesLegacyPerPointSynthesis) {
  // The shared-frontend + clone path must reproduce what a from-source
  // synthesis of each point produces.
  auto points = sweepWithJobs(designs::diffeqSource(), 4, 4);
  for (int n = 1; n <= 4; ++n) {
    SynthesisOptions opts;
    opts.scheduler = SchedulerKind::List;
    opts.resources = ResourceLimits::universalSet(n);
    Synthesizer synth(opts);
    SynthesisResult r = synth.synthesizeSource(designs::diffeqSource());
    const DsePoint& p = points[(std::size_t)n - 1];
    EXPECT_EQ(p.latencySteps, r.staticLatency());
    EXPECT_EQ(p.area, r.area.total());
    EXPECT_EQ(p.cycleTime, r.timing.cycleTime);
  }
}

// ----------------------------------------------------------- markPareto

TEST(DseParallelPareto, OrderIndependentAndStableUnderTies) {
  auto mk = [](const char* label, int lat, double area) {
    DsePoint p;
    p.label = label;
    p.latencySteps = lat;
    p.area = area;
    return p;
  };
  std::vector<DsePoint> pts = {
      mk("a", 10, 100), mk("b", 8, 120), mk("c", 8, 120),  // exact ties
      mk("d", 12, 100),  // same area as a, slower: dominated
      mk("e", 6, 200),
  };
  auto sorted = pts;
  markPareto(sorted);
  // Exact-tie duplicates share a fate (both on the front here).
  EXPECT_TRUE(sorted[1].pareto);
  EXPECT_TRUE(sorted[2].pareto);
  EXPECT_TRUE(sorted[0].pareto);
  EXPECT_FALSE(sorted[3].pareto);  // dominated by a (equal area, faster)
  EXPECT_TRUE(sorted[4].pareto);

  // Any permutation yields the same per-label marking.
  std::vector<std::size_t> perm = {4, 2, 0, 3, 1};
  std::vector<DsePoint> shuffled;
  for (std::size_t i : perm) shuffled.push_back(pts[i]);
  markPareto(shuffled);
  for (const auto& p : shuffled) {
    for (const auto& q : sorted) {
      if (p.label == q.label) {
        EXPECT_EQ(p.pareto, q.pareto) << p.label;
      }
    }
  }
}

TEST(DseParallelPareto, DominationMatchesDefinition) {
  auto mk = [](int lat, double area) {
    DsePoint p;
    p.label = std::to_string(lat) + "/" + std::to_string(area);
    p.latencySteps = lat;
    p.area = area;
    return p;
  };
  std::vector<DsePoint> pts = {mk(5, 50), mk(6, 40), mk(7, 30),
                               mk(6, 45), mk(8, 30)};
  markPareto(pts);
  EXPECT_TRUE(pts[0].pareto);
  EXPECT_TRUE(pts[1].pareto);
  EXPECT_TRUE(pts[2].pareto);
  EXPECT_FALSE(pts[3].pareto);  // beaten by (6,40)
  EXPECT_FALSE(pts[4].pareto);  // beaten by (7,30)
}

// ------------------------------------- incremental force-directed equality

TEST(DseParallelForceDirected, MatchesReferenceOnFig5) {
  Function fn = fig5Graph();
  BlockDeps deps(fn, fn.block(fn.entry()));
  const int critical = computeLevels(deps).criticalLength;
  for (int horizon = critical; horizon <= critical + 3; ++horizon) {
    BlockSchedule inc = forceDirectedSchedule(deps, horizon);
    BlockSchedule ref = forceDirectedScheduleReference(deps, horizon);
    EXPECT_EQ(inc.step, ref.step) << "horizon " << horizon;
    EXPECT_EQ(inc.numSteps, ref.numSteps) << "horizon " << horizon;
  }
}

TEST(DseParallelForceDirected, MatchesReferenceOnDiffeqAndBuiltins) {
  for (const auto& d : designs::all()) {
    auto fn = FrontendCache::global().get(d.source, "", OptLevel::Standard);
    for (const auto& blk : fn->blocks()) {
      if (blk.ops.empty()) continue;
      BlockDeps deps(*fn, blk);
      LevelInfo li = computeLevels(deps);
      for (int slack = 0; slack <= 3; ++slack) {
        const int horizon = li.criticalLength + slack;
        BlockSchedule inc = forceDirectedSchedule(deps, horizon);
        BlockSchedule ref = forceDirectedScheduleReference(deps, horizon);
        EXPECT_EQ(inc.step, ref.step)
            << d.name << " block " << blk.name << " horizon " << horizon;
        EXPECT_EQ(inc.numSteps, ref.numSteps);
      }
    }
  }
}

TEST(DseParallelForceDirected, MatchesReferenceOnRandomDfgs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Function fn = randomDfg(18, seed * 7919);
    BlockDeps deps(fn, fn.block(fn.entry()));
    LevelInfo li = computeLevels(deps);
    for (int slack : {0, 1, 3}) {
      const int horizon = li.criticalLength + slack;
      BlockSchedule inc = forceDirectedSchedule(deps, horizon);
      BlockSchedule ref = forceDirectedScheduleReference(deps, horizon);
      ASSERT_EQ(inc.step, ref.step)
          << "seed " << seed << " horizon " << horizon;
    }
  }
}

// The heavy-overlap synthetic DFGs the speed tests time: 16 ops at slack
// 2 and 48 ops at slack 3.
TEST(DseParallelForceDirected, MatchesReferenceOnSyntheticDfgs) {
  for (const auto& [ops, slack] : {std::pair{16, 2}, std::pair{48, 3}}) {
    Function fn = syntheticDfg(ops);
    BlockDeps deps(fn, fn.block(fn.entry()));
    const int horizon = computeLevels(deps).criticalLength + slack;
    BlockSchedule inc = forceDirectedSchedule(deps, horizon);
    BlockSchedule ref = forceDirectedScheduleReference(deps, horizon);
    EXPECT_EQ(inc.step, ref.step) << ops << " ops, horizon " << horizon;
    EXPECT_EQ(inc.numSteps, ref.numSteps) << ops << " ops";
  }
}

TEST(DseParallelForceDirected, SchedulesRemainValid) {
  Function fn = randomDfg(20, 42);
  BlockDeps deps(fn, fn.block(fn.entry()));
  LevelInfo li = computeLevels(deps);
  BlockSchedule s = forceDirectedSchedule(deps, li.criticalLength + 2);
  EXPECT_EQ(validateBlockSchedule(deps, s), "");
}
