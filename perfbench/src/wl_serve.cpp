// serve-mix: the only workload through `mphls serve` (HTTP parse, poll
// loop, pool dispatch), and the only one that mixes frontend-cache hits
// (repeated builtin sources) with misses (fresh generated programs).
//
// The daemon runs as its own process on an ephemeral port. One generator
// process (this one) sends on a seeded Poisson schedule at fixed offered
// rates over keep-alive connections, timing every request from when it
// was due, so a stall also delays the requests queued behind it.
//
// End-to-end figures: requests served per CPU-second of the daemon (its
// capacity per core over the whole mix) and its handling latency at the
// high rate: nearest-rank percentiles of the exact per-request times in
// the daemon's access log (`--log-file`). The client-side
// latencies (low and high rate), the saturation completion rate, the rate
// ladder, the generator's lag and the wait outside the handler are notes
// or per-layer figures of the traced run: on a shared 4-core host the four
// thread hops of every ~1 ms request make them swing with other tenants'
// load far beyond any useful regression bound.
//
// Threads: 2 daemon workers + 2 generator threads, one keep-alive
// connection each.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json_reader.h"
#include "core/commands.h"
#include "core/designs.h"
#include "core/frontend_cache.h"
#include "fuzz/bdl_gen.h"
#include "gen.h"
#include "lang/frontend.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace mphls;
using obs::TraceSpan;

constexpr int kDaemonJobs = 2;
constexpr int kGenThreads = 2;
constexpr int kFreshPercent = 5;  ///< share of requests with a fresh source
constexpr const char* kEndpoints[] = {"/synth", "/lint", "/sim", "/sta"};

/// Offered rates (requests/s). Low and high are fixed operating points
/// well below capacity (about 1600/s on 4 cores), so that a loss of CPU
/// to other tenants of a shared machine does not tip them into overload.
/// The saturation phase offers far more than the daemon can serve, so its
/// completion rate is the daemon's capacity. The ladder
/// (traced run) finds the highest rate whose p99 meets kLimitMs without a
/// growing backlog.
constexpr double kLowRate = 200;
constexpr double kHighRate = 500;
constexpr double kSaturationRate = 4000;
constexpr double kLadder[] = {400,  500,  630,  800,  1000,
                              1250, 1600, 2000, 2500, 3200};
constexpr double kLimitMs = 20;
/// A rung's backlog grows when the generator's lag rises faster than this
/// (seconds of lag per second of schedule).
constexpr double kBacklogSlope = 0.02;
/// The untraced run repeats low, high and saturation phases kRounds times
/// and reports the best round: CPU time taken by other tenants of a shared
/// host only ever adds time, and comes in bursts. The traced run has
/// kRounds rounds of low and high (pooled, so that each p99 keeps ten
/// samples beyond it), then the ladder.
constexpr int kRounds = 6;
constexpr int kSetups = 5;
/// Requests per phase at --seconds 20; scaled linearly with --seconds.
constexpr int kLowCount = 200, kHighCount = 1000, kSaturationCount = 1000,
              kRungCount = 1000;
constexpr std::size_t kRateChunk = 250;
/// Requests of the high phase replayed in-process by the traced run.
constexpr std::size_t kReplayCount = 2000;

struct Template {
  std::string endpoint;
  std::string body;  ///< JSON request body
  cmd::Request req;  ///< the same request for the cmd:: layer
  std::map<std::string, std::uint64_t> inputs;  ///< /sim only
  bool fresh = false;
};

std::string jsonString(const std::string& s) {
  std::string out;
  obs::appendJsonString(out, s);
  return out;
}

Template makeTemplate(const std::string& endpoint, const std::string& name,
                      const std::string& source, const char* builtin,
                      const std::map<std::string, std::uint64_t>& inputs) {
  Template t;
  t.endpoint = endpoint;
  t.fresh = builtin == nullptr;
  t.req.name = name;
  t.req.source = source;
  // The daemon's defaults: the CLI's option vector with 2 universal FUs.
  t.req.opts.resources = ResourceLimits::universalSet(2);
  t.body = "{\"name\":" + jsonString(name);
  t.body += builtin ? ",\"design\":" + jsonString(builtin)
                    : ",\"source\":" + jsonString(source);
  if (endpoint == "/sim") {
    t.inputs = inputs;
    t.body += ",\"inputs\":{";
    bool first = true;
    for (const auto& [k, v] : inputs) {
      if (!first) t.body += ",";
      first = false;
      t.body += jsonString(k) + ":" + std::to_string(v);
    }
    t.body += "}";
  }
  t.body += "}";
  return t;
}

cmd::Result runCmd(const Template& t) {
  if (t.endpoint == "/synth") return cmd::synthJson(t.req);
  if (t.endpoint == "/lint") return cmd::lintJson(t.req);
  if (t.endpoint == "/sta") return cmd::staJson(t.req, 0, 5);
  return cmd::simJson(t.req, t.inputs);
}

struct Planned {
  int tmpl = 0;
  double due = 0;  ///< seconds after the phase start
};

enum class Kind { Low, High, Saturation, Rung };

struct Phase {
  Kind kind = Kind::Low;
  double rate = 0;
  std::vector<Planned> plan;
};

const char* kindName(Kind k) {
  switch (k) {
    case Kind::Low: return "low";
    case Kind::High: return "high";
    case Kind::Saturation: return "saturation";
    case Kind::Rung: return "rung";
  }
  return "?";
}

/// One sent request, as observed by the generator.
struct Sent {
  double due = 0, sent = 0, done = 0;  ///< seconds after the phase start
  int status = 0;
  bool ok = false;  ///< transport-level success
  std::size_t hash = 0;
};

using PhaseRun = std::vector<Sent>;

// ------------------------------------------------------------ the daemon

class Daemon {
 public:
  /// Starts `mphls serve`, which appends one access-log record per
  /// request to `logPath` (removed first).
  Daemon(const std::string& mphls, int jobs, const std::string& logPath) {
    unlink(logPath.c_str());
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    const std::string jobsArg = std::to_string(jobs);
    std::vector<std::string> args = {mphls,     "serve",      "--port",
                                     "0",       "--jobs",     jobsArg,
                                     "--quiet", "--log-file", logPath,
                                     "--log-level", "info"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, mphls.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + mphls);
    }
    port_ = readPort();
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }

  /// SIGTERM (graceful drain), then wait; SIGKILL after five seconds.
  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      for (int i = 0; i < 500; ++i) {
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        usleep(10000);
      }
      if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
      }
    }
    if (out_ >= 0) close(out_);
    out_ = -1;
  }

 private:
  /// Parse "mphls serve: listening on 127.0.0.1:PORT" from the daemon's
  /// stdout, waiting up to ten seconds.
  int readPort() {
    std::string buf;
    const double deadline = nowSeconds() + 10;
    while (nowSeconds() < deadline) {
      pollfd p{out_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char c[256];
      const ssize_t n = read(out_, c, sizeof c);
      if (n <= 0) break;
      buf.append(c, (std::size_t)n);
      const std::size_t at = buf.find("127.0.0.1:");
      if (at != std::string::npos && buf.find('\n', at) != std::string::npos)
        return std::atoi(buf.c_str() + at + 10);
    }
    throw std::runtime_error("daemon did not report its port");
  }

  pid_t pid_ = -1;
  int out_ = -1;
  int port_ = 0;
};

// --------------------------------------------------------- the generator

/// Send `phase.plan` open-loop over `clients`; each generator thread owns
/// one keep-alive connection. Records the first body of every template in
/// `firstBody` (for the exact comparison after the window) and a hash of
/// every body.
PhaseRun runPhase(const Phase& phase,
                  std::vector<std::unique_ptr<serve::HttpClient>>& clients,
                  const std::vector<Template>& tmpls,
                  std::vector<std::string>& firstBody, std::mutex& firstMu) {
  PhaseRun run(phase.plan.size());
  std::atomic<std::size_t> next{0};
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto since = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto worker = [&](serve::HttpClient& client) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= phase.plan.size()) return;
      const Planned& p = phase.plan[i];
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(p.due)));
      Sent& s = run[i];
      s.due = p.due;
      s.sent = since();
      const Template& t = tmpls[(std::size_t)p.tmpl];
      const serve::ClientResponse r = client.post(t.endpoint, t.body);
      s.done = since();
      s.ok = r.ok;
      s.status = r.status;
      s.hash = std::hash<std::string>{}(r.body);
      if (r.ok) {
        std::lock_guard<std::mutex> lk(firstMu);
        if (firstBody[(std::size_t)p.tmpl].empty())
          firstBody[(std::size_t)p.tmpl] = r.body;
      }
    }
  };
  std::vector<std::thread> threads;
  for (auto& c : clients) threads.emplace_back(worker, std::ref(*c));
  for (auto& th : threads) th.join();
  return run;
}

struct PhaseStats {
  double p50 = 0, p90 = 0, p99 = 0;  ///< ms from due; failures count as inf
  double lagP99 = 0;                 ///< ms
  double backlogSlope = 0;           ///< lag growth, s per s of schedule
  double completedPerSecond = 0;
  std::size_t samples = 0;
  /// Handling time inside the daemon (ms), from its access log.
  double handleP50 = 0, handleP90 = 0;
  [[nodiscard]] bool meets() const {
    return p99 <= kLimitMs && backlogSlope <= kBacklogSlope;
  }
};

/// Completions per second: the median over consecutive chunks of
/// kRateChunk completions, so that a stall of the shared machine shifts
/// one chunk rather than the whole phase.
double completionRate(const PhaseRun& run) {
  std::vector<double> done;
  for (const Sent& s : run) done.push_back(s.done);
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  for (std::size_t i = kRateChunk; i < done.size(); i += kRateChunk)
    if (done[i] > done[i - kRateChunk])
      rates.push_back((double)kRateChunk / (done[i] - done[i - kRateChunk]));
  return median(rates);
}

/// `good[i]`: request i of the phase got the expected status and bytes.
PhaseStats statsOf(const PhaseRun& run, const std::vector<char>& good) {
  PhaseStats st;
  std::vector<double> lat, lag;
  std::vector<std::pair<double, double>> lagOverTime;
  for (std::size_t i = 0; i < run.size(); ++i) {
    const Sent& s = run[i];
    lat.push_back(good[i] ? (s.done - s.due) * 1e3
                          : std::numeric_limits<double>::infinity());
    lag.push_back((s.sent - s.due) * 1e3);
    lagOverTime.emplace_back(s.due, s.sent - s.due);
  }
  st.p50 = percentile(lat, 0.5);
  st.p90 = percentile(lat, 0.9);
  st.p99 = percentile(lat, 0.99);
  st.lagP99 = percentile(lag, 0.99);
  st.backlogSlope = slope(lagOverTime);
  st.completedPerSecond = completionRate(run);
  st.samples = lat.size();
  return st;
}

// ------------------------------------------------ daemon-side figures

/// Per-endpoint handled count and seconds of the serve endpoint
/// histograms, and the frontend cache counters, from
/// /metrics?format=prometheus.
struct Scrape {
  std::map<std::string, double> count, sum;
  double cacheHits = 0, cacheMisses = 0;
};

double lastNumber(const std::string& line) {
  return std::atof(line.c_str() + line.rfind(' ') + 1);
}

Scrape scrape(serve::HttpClient& probe) {
  Scrape s;
  const serve::ClientResponse r = probe.get("/metrics?format=prometheus");
  if (!r.ok || r.status != 200)
    throw std::runtime_error("cannot scrape the daemon's /metrics");
  std::istringstream in(r.body);
  std::string line;
  while (std::getline(in, line)) {
    for (const char* ep : kEndpoints) {
      const std::string base =
          std::string("mphls_serve_") + (ep + 1) + "_seconds";
      if (line.rfind(base + "_count ", 0) == 0) {
        s.count[ep] = lastNumber(line);
      } else if (line.rfind(base + "_sum ", 0) == 0) {
        s.sum[ep] = lastNumber(line);
      }
    }
    if (line.rfind("mphls_serve_cache_hits ", 0) == 0)
      s.cacheHits = lastNumber(line);
    if (line.rfind("mphls_serve_cache_misses ", 0) == 0)
      s.cacheMisses = lastNumber(line);
  }
  return s;
}

/// The daemon's handling time (ms) of every POST request, from its access
/// log, split by phase. The generator scrapes /metrics before every phase
/// and after the last, and a phase ends before the next scrape, so the
/// POST records after the k-th GET /metrics record are phase k's (those
/// before the first are the warm-up's).
std::vector<std::vector<double>> handleMsByPhase(const std::string& logPath,
                                                 std::size_t phases) {
  std::vector<std::vector<double>> out(phases);
  std::ifstream in(logPath);
  std::string line;
  std::size_t scrapes = 0;
  while (std::getline(in, line)) {
    const std::unique_ptr<json::Node> rec = json::parse(line);
    if (!rec || rec->get("msg") == nullptr ||
        rec->get("msg")->str() != "request")
      continue;
    const json::Node* method = rec->get("method");
    const json::Node* ms = rec->get("ms");
    if (method == nullptr || ms == nullptr) continue;
    if (method->str() == "GET") {
      ++scrapes;
    } else if (scrapes >= 1 && scrapes <= phases) {
      out[scrapes - 1].push_back(ms->number());
    }
  }
  if (scrapes != phases + 1)
    throw std::runtime_error("the daemon's access log holds " +
                             std::to_string(scrapes) + " scrapes, not " +
                             std::to_string(phases + 1));
  return out;
}

/// Mean handling time (s) per endpoint between two scrapes.
std::map<std::string, double> meanHandleSeconds(const Scrape& a,
                                                const Scrape& b) {
  std::map<std::string, double> out;
  for (const auto& [ep, n] : b.count) {
    const double dn = n - (a.count.count(ep) ? a.count.at(ep) : 0);
    const double ds = b.sum.at(ep) - (a.sum.count(ep) ? a.sum.at(ep) : 0);
    out[ep] = dn > 0 ? ds / dn : 0;
  }
  return out;
}

// --------------------------------------------------------------- the run

struct Setup {
  std::vector<Template> tmpls;
  std::vector<int> builtin;  ///< indices of the builtin templates
  std::uint64_t freshSeed = 0;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<serve::HttpClient>> clients;
};

/// A seeded Poisson schedule of `count` (scaled) requests at `rate`.
/// The mix is balanced, then shuffled: exactly kFreshPercent of the
/// requests carry a freshly generated program (spread evenly over the
/// endpoints) and the rest cycle through the builtin templates, so every
/// seed offers the same mix.
Phase makePhase(Setup& s, fuzz::Rng& rng, Kind kind, double rate,
                int count, double scale) {
  Phase p;
  p.kind = kind;
  p.rate = rate;
  const int n = std::max(100, (int)std::lround(count * scale));
  const int fresh = n * kFreshPercent / 100;
  std::vector<int> mix;
  for (int i = 0; i < fresh; ++i) {
    const std::uint64_t k = s.tmpls.size();
    const FreshProgram prog = freshProgram(subSeed(s.freshSeed, k));
    mix.push_back((int)k);
    s.tmpls.push_back(makeTemplate(kEndpoints[(std::size_t)i %
                                              std::size(kEndpoints)],
                                   "fresh" + std::to_string(k), prog.source,
                                   nullptr, prog.inputs));
  }
  for (int i = fresh; i < n; ++i)
    mix.push_back(s.builtin[(std::size_t)i % s.builtin.size()]);
  for (std::size_t i = mix.size(); i > 1; --i)  // Fisher-Yates
    std::swap(mix[i - 1], mix[rng.below(i)]);
  double t = 0;
  for (int tmpl : mix) {
    // Exponential gaps with mean 1/rate.
    const double u = ((double)(rng.next() >> 11) + 0.5) / 9007199254740992.0;
    t += -std::log(u) / rate;
    p.plan.push_back({tmpl, t});
  }
  return p;
}

/// Every phase of the run: rounds of low, high and saturation (untraced),
/// or rounds of low and high followed by the rate ladder (traced).
std::vector<Phase> buildInputs(Setup& s, const RunOptions& o) {
  const double scale = o.seconds / 20.0;
  for (const auto& d : designs::all())
    for (const char* ep : kEndpoints) {
      s.builtin.push_back((int)s.tmpls.size());
      s.tmpls.push_back(
          makeTemplate(ep, d.name, d.source, d.name, d.sampleInputs));
    }
  s.freshSeed = subSeed(o.seed, 4000);
  fuzz::Rng rng(subSeed(o.seed, 3000));
  std::vector<Phase> phases;
  for (int round = 0; round < kRounds; ++round) {
    phases.push_back(makePhase(s, rng, Kind::Low, kLowRate, kLowCount, scale));
    phases.push_back(
        makePhase(s, rng, Kind::High, kHighRate, kHighCount, scale));
    if (!o.trace)
      phases.push_back(makePhase(s, rng, Kind::Saturation, kSaturationRate,
                                 kSaturationCount, scale));
  }
  if (o.trace)
    for (double r : kLadder)
      phases.push_back(makePhase(s, rng, Kind::Rung, r, kRungCount, scale));
  return phases;
}

/// Start the daemon, open the generator's connections and warm both up
/// with one request per builtin template.
void startDaemon(Setup& s, const std::string& mphls,
                 const std::string& logPath) {
  s.daemon = std::make_unique<Daemon>(mphls, kDaemonJobs, logPath);
  for (int i = 0; i < kGenThreads; ++i)
    s.clients.push_back(
        std::make_unique<serve::HttpClient>("127.0.0.1", s.daemon->port()));
  std::size_t k = 0;
  for (int t : s.builtin) {
    auto& c = *s.clients[k++ % s.clients.size()];
    const Template& tm = s.tmpls[(std::size_t)t];
    const serve::ClientResponse r = c.post(tm.endpoint, tm.body);
    if (!r.ok) throw std::runtime_error("warm-up request failed: " + r.error);
  }
}

/// In-process replay of `plan` through the cmd:: layer from a cleared
/// frontend cache; with the tracer on, each request runs under a
/// "core.cmd" span. Returns the wall seconds.
struct Replay {
  double wall = 0;
  std::size_t langBytes = 0;  ///< source bytes through frontend misses
};

Replay replayInProcess(const Setup& s, const std::vector<Planned>& plan) {
  Replay out;
  FrontendCache::global().clear();
  const double t0 = nowSeconds();
  for (const Planned& p : plan) {
    const Template& t = s.tmpls[(std::size_t)p.tmpl];
    TraceSpan req("bench.request", t.endpoint);
    const std::size_t misses = FrontendCache::global().misses();
    {
      TraceSpan c("core.cmd");
      (void)runCmd(t);
    }
    out.langBytes +=
        t.req.source.size() * (FrontendCache::global().misses() - misses);
  }
  out.wall = nowSeconds() - t0;
  return out;
}

}  // namespace

RunResult runServe(const RunOptions& o) {
  RunResult r;
  Setup s;
  // Set-up: input generation once, then daemon start, connections and
  // warm-up kSetups times (the last daemon stays up).
  const double genStart = nowSeconds();
  const std::vector<Phase> phases = buildInputs(s, o);
  const double genSeconds = nowSeconds() - genStart;
  const std::string logPath = o.workDir + "/serve-access.jsonl";
  std::vector<double> starts;
  struct rusage childrenBefore {};
  for (int rep = 0; rep < kSetups; ++rep) {
    s.clients.clear();
    s.daemon.reset();
    // The last daemon is the measured one; the ones before it are reaped.
    if (rep == kSetups - 1) getrusage(RUSAGE_CHILDREN, &childrenBefore);
    const double a = nowSeconds();
    startDaemon(s, o.mphls, logPath);
    starts.push_back(nowSeconds() - a);
  }
  const double setup = genSeconds + median(starts);

  std::vector<std::string> firstBody(s.tmpls.size());
  std::mutex firstMu;
  std::vector<PhaseRun> runs;
  serve::HttpClient probe("127.0.0.1", s.daemon->port());
  // The daemon's /metrics, scraped around every phase: scrapes[i] before
  // phase i, scrapes.back() after the last. The scrapes also mark the
  // phase boundaries in the daemon's access log.
  std::vector<Scrape> scrapes;
  for (const Phase& phase : phases) {
    scrapes.push_back(scrape(probe));
    runs.push_back(runPhase(phase, s.clients, s.tmpls, firstBody, firstMu));
  }
  scrapes.push_back(scrape(probe));
  const Scrape& before = scrapes.front();
  const Scrape& afterRounds =
      scrapes[(std::size_t)(std::find_if(phases.begin(), phases.end(),
                                         [](const Phase& p) {
                                           return p.kind == Kind::Rung;
                                         }) -
                            phases.begin())];
  s.clients.clear();
  s.daemon->stop();
  // Every child of this process is a daemon, and the measured one served
  // the most, so the children's peak is the measured daemon's peak; its
  // CPU time is what the children used since the earlier ones were reaped.
  struct rusage ru {};
  getrusage(RUSAGE_CHILDREN, &ru);
  const double rss = (double)ru.ru_maxrss / 1024.0;  // KiB on Linux
  auto cpuSeconds = [](const struct rusage& u) {
    return (double)u.ru_utime.tv_sec + (double)u.ru_utime.tv_usec / 1e6 +
           (double)u.ru_stime.tv_sec + (double)u.ru_stime.tv_usec / 1e6;
  };
  const double daemonCpu = cpuSeconds(ru) - cpuSeconds(childrenBefore);
  const std::vector<std::vector<double>> handleMs =
      handleMsByPhase(logPath, phases.size());
  std::size_t served = s.builtin.size() + scrapes.size();  // warm-up, scrapes
  for (const PhaseRun& run : runs) served += run.size();

  // Output checks, after the window: every response must carry the
  // cmd:: layer's status and exact bytes for its request.
  std::vector<int> expectedStatus(s.tmpls.size(), 200);
  std::vector<std::size_t> expectedHash(s.tmpls.size(), 0);
  FrontendCache::global().clear();
  for (std::size_t t = 0; t < s.tmpls.size(); ++t) {
    if (firstBody[t].empty() && s.tmpls[t].fresh) continue;  // never sent
    const cmd::Result c = runCmd(s.tmpls[t]);
    expectedStatus[t] = c.inputError ? 422 : 200;
    expectedHash[t] = std::hash<std::string>{}(c.body);
    if (firstBody[t] != c.body) {
      r.notes.push_back("body mismatch on " + s.tmpls[t].endpoint + " " +
                        s.tmpls[t].req.name);
      expectedHash[t] = 0;  // fails every response of this template
    }
  }
  std::vector<PhaseStats> stats;
  std::vector<std::vector<char>> good(runs.size());
  long fresh = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    good[i].resize(runs[i].size());
    for (std::size_t k = 0; k < good[i].size(); ++k) {
      const Sent& x = runs[i][k];
      const std::size_t t = (std::size_t)phases[i].plan[k].tmpl;
      good[i][k] = x.ok && x.status == expectedStatus[t] &&
                   x.hash == expectedHash[t];
      ++r.attempted;
      r.failed += !good[i][k];
      fresh += s.tmpls[t].fresh;
    }
    stats.push_back(statsOf(runs[i], good[i]));
    stats[i].handleP50 = percentile(handleMs[i], 0.5);
    stats[i].handleP90 = percentile(handleMs[i], 0.9);
    r.notes.push_back(std::string(kindName(phases[i].kind)) + " " +
                      std::to_string((int)phases[i].rate) +
                      "/s n=" + std::to_string(good[i].size()) +
                      " p50=" + std::to_string(stats[i].p50) +
                      " p90=" + std::to_string(stats[i].p90) +
                      " p99=" + std::to_string(stats[i].p99) +
                      " handle_p50=" + std::to_string(stats[i].handleP50) +
                      " handle_p90=" + std::to_string(stats[i].handleP90) +
                      " lag_p99=" + std::to_string(stats[i].lagP99) +
                      " slope=" + std::to_string(stats[i].backlogSlope) +
                      " done/s=" + std::to_string(stats[i].completedPerSecond));
  }
  // Per-kind views: the best round, and all rounds pooled.
  auto bestOf = [&](Kind kind, double PhaseStats::*field, bool higher) {
    std::vector<double> v;
    for (std::size_t i = 0; i < runs.size(); ++i)
      if (phases[i].kind == kind) v.push_back(stats[i].*field);
    return higher ? *std::max_element(v.begin(), v.end())
                  : *std::min_element(v.begin(), v.end());
  };
  auto pooled = [&](Kind kind) {
    PhaseRun all;
    std::vector<char> allGood;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (phases[i].kind != kind) continue;
      all.insert(all.end(), runs[i].begin(), runs[i].end());
      allGood.insert(allGood.end(), good[i].begin(), good[i].end());
    }
    return statsOf(all, allGood);
  };

  if (!o.trace) {
    r.metrics["setup_s"] = setup;
    r.metrics["throughput_per_s"] =
        daemonCpu > 0 ? (double)served / daemonCpu : 0;
    r.notes.push_back(
        "saturation completions/s, best round: " +
        std::to_string(
            bestOf(Kind::Saturation, &PhaseStats::completedPerSecond, true)));
    r.metrics["lat_p50_ms"] =
        bestOf(Kind::High, &PhaseStats::handleP50, false);
    r.metrics["lat_p90_ms"] =
        bestOf(Kind::High, &PhaseStats::handleP90, false);
    r.metrics["peak_rss_mb"] = rss;
    return r;
  }

  // Traced run. The layer split first: the high phases' first requests
  // replayed in-process through the cmd:: layer, traced, between two
  // untraced replays (the overhead baseline), after an unmeasured warm-up.
  std::vector<Planned> highPlan;
  for (std::size_t i = 0; i < phases.size(); ++i)
    if (phases[i].kind == Kind::High)
      highPlan.insert(highPlan.end(), phases[i].plan.begin(),
                      phases[i].plan.end());
  const std::vector<Planned> plan(
      highPlan.begin(),
      highPlan.begin() +
          (std::ptrdiff_t)std::min(kReplayCount, highPlan.size()));
  (void)replayInProcess(s, plan);
  const Replay base1 = replayInProcess(s, plan);
  startTracing();
  const double t0 = nowSeconds();
  const Replay traced = replayInProcess(s, plan);
  const double t1 = nowSeconds();
  const std::vector<Span> spans = stopTracing();
  const Replay base2 = replayInProcess(s, plan);
  const double baseWall = (base1.wall + base2.wall) / 2;
  const LayerSplit main = splitLayers(spans, t0, t1);
  fillLayerMetrics(r, main, splitLayers(spans, t1, t1, true), traced.wall);
  auto& m = r.metrics;
  m["lang.bytes_per_s"] =
      m["lang.s"] > 0 ? (double)traced.langBytes / m["lang.s"] : 0;
  m["trace_overhead_share"] = baseWall > 0 ? traced.wall / baseWall - 1 : 0;

  // Then the daemon-side and generator-side serve metrics.
  const PhaseStats low = pooled(Kind::Low);
  const PhaseStats high = pooled(Kind::High);
  for (const auto& [name, n] :
       {std::pair<const char*, std::size_t>{"low", low.samples},
        {"high", high.samples}})
    if (!tailIsBacked(n, 0.99))
      r.notes.push_back(std::string(name) + " p99 has fewer than ten samples "
                        "beyond it (n=" + std::to_string(n) + ")");
  double rateMax = 0;
  for (std::size_t i = 0; i < stats.size(); ++i)
    if (phases[i].kind == Kind::Rung && stats[i].meets())
      rateMax = std::max(rateMax, phases[i].rate);
  m["serve.lat_ms.low.p50"] = low.p50;
  m["serve.lat_ms.low.p99"] = low.p99;
  m["serve.lat_ms.high.p50"] = high.p50;
  m["serve.lat_ms.high.p99"] = high.p99;
  m["serve.rate_max_rps"] = rateMax;
  m["serve.gen_lag_ms.p99"] = high.lagP99;
  {
    std::vector<double> handled;  // low and high rounds
    for (std::size_t i = 0; i < phases.size(); ++i)
      if (phases[i].kind != Kind::Rung)
        handled.insert(handled.end(), handleMs[i].begin(), handleMs[i].end());
    m["serve.handle_ms.p50"] = percentile(handled, 0.5);
    m["serve.handle_ms.p99"] = percentile(handled, 0.99);
  }
  {
    // Client latency minus the endpoint's mean handling time.
    const auto mean = meanHandleSeconds(before, afterRounds);
    std::vector<double> wait;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (phases[i].kind != Kind::High) continue;
      for (std::size_t k = 0; k < runs[i].size(); ++k) {
        const Sent& x = runs[i][k];
        const std::string& ep =
            s.tmpls[(std::size_t)phases[i].plan[k].tmpl].endpoint;
        wait.push_back(
            (x.done - x.due - (mean.count(ep) ? mean.at(ep) : 0)) * 1e3);
      }
    }
    m["serve.wait_ms.p99"] = percentile(wait, 0.99);
  }
  m["serve.fresh_share"] = (double)fresh / (double)r.attempted;
  const double dh = afterRounds.cacheHits - before.cacheHits;
  const double dm = afterRounds.cacheMisses - before.cacheMisses;
  m["core.frontend_cache.hit_ratio"] = dh + dm > 0 ? dh / (dh + dm) : 0;
  const auto staRuns = main.count.find("sta.run");
  m["sta.runs_per_point"] =
      staRuns == main.count.end()
          ? 0
          : (double)staRuns->second / (double)plan.size();
  std::size_t opsBefore = 0, opsAfter = 0;
  std::set<int> seen;
  for (const Planned& p : plan) {
    if (!seen.insert(p.tmpl).second) continue;
    const Template& t = s.tmpls[(std::size_t)p.tmpl];
    opsBefore += opCount(compileBdlOrThrow(t.req.source));
    opsAfter += opCount(
        *FrontendCache::global().get(t.req.source, "", OptLevel::Standard));
  }
  m["opt.ops_removed_share"] =
      opsBefore > 0 ? 1.0 - (double)opsAfter / (double)opsBefore : 0;
  m["fail_share"] = (double)r.failed / (double)r.attempted;
  return r;
}

}  // namespace perfbench
