#include "serve/loadgen.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "common/json_reader.h"
#include "common/wall_timer.h"
#include "core/options.h"
#include "serve/client.h"

namespace mphls::serve {

namespace {

constexpr const char* kEndpoints[] = {"synth", "lint", "analyze",
                                      "sta",   "prove", "sim"};

[[nodiscard]] bool isEndpoint(const std::string& name) {
  for (const char* e : kEndpoints)
    if (name == e) return true;
  return false;
}

/// One scheduled request: a target plus a fully rendered body.
struct PlannedRequest {
  std::string target;
  std::string body;
};

[[nodiscard]] double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t idx = std::min(
      sorted.size() - 1, (std::size_t)((double)sorted.size() * q));
  return sorted[idx];
}

}  // namespace

bool parseUrl(const std::string& url, std::string& host, int& port) {
  const std::string scheme = "http://";
  if (url.rfind(scheme, 0) != 0) return false;
  const std::string rest = url.substr(scheme.size());
  const std::size_t colon = rest.find(':');
  if (colon == std::string::npos || colon == 0) return false;
  host = rest.substr(0, colon);
  std::string portStr = rest.substr(colon + 1);
  if (const std::size_t slash = portStr.find('/');
      slash != std::string::npos) {
    if (slash + 1 != portStr.size()) return false;  // only a bare trailing /
    portStr = portStr.substr(0, slash);
  }
  if (portStr.empty() || portStr.size() > 5) return false;
  port = 0;
  for (char c : portStr) {
    if (c < '0' || c > '9') return false;
    port = port * 10 + (c - '0');
  }
  return port > 0 && port <= 65535;
}

LoadgenReport runLoadgen(const LoadgenOptions& opts) {
  LoadgenReport rep;
  std::string host;
  int port = 0;
  if (!parseUrl(opts.url, host, port)) {
    rep.error = "bad --url (expected http://host:port): " + opts.url;
    return rep;
  }
  if (opts.clients < 1 || opts.requests < 1) {
    rep.error = "--clients and --requests must be >= 1";
    return rep;
  }

  // Parse the mix: colon-separated endpoint names; repeats add weight.
  std::vector<std::string> mix;
  {
    std::string cur;
    for (char c : opts.mix + ":") {
      if (c == ':') {
        if (!cur.empty()) {
          if (!isEndpoint(cur)) {
            rep.error = "unknown endpoint in --mix: " + cur;
            return rep;
          }
          mix.push_back(cur);
          cur.clear();
        }
      } else {
        cur += c;
      }
    }
    if (mix.empty()) {
      rep.error = "--mix is empty";
      return rep;
    }
  }

  // Discover the builtin designs (and their stimulus) from the daemon so
  // /sim requests run with meaningful inputs.
  struct DesignInfo {
    std::string name;
    /// port, value
    std::vector<std::pair<std::string, std::uint64_t>> inputs;
  };
  std::vector<DesignInfo> designs;
  {
    HttpClient probe(host, port);
    const ClientResponse r = probe.get("/designs");
    if (!r.ok) {
      rep.error = "daemon unreachable at " + opts.url + ": " + r.error;
      return rep;
    }
    const auto doc = json::parse(r.body);
    if (!doc || !doc->isArray() || doc->size() == 0) {
      rep.error = "bad /designs response";
      return rep;
    }
    for (const auto& d : doc->items()) {
      DesignInfo info;
      info.name = d->getString("name");
      if (const json::Node* si = d->get("sample_inputs"))
        for (const auto& [k, v] : si->members())
          info.inputs.emplace_back(k, v->uint64().value_or(0));
      designs.push_back(std::move(info));
    }
  }

  // Deterministic schedule: one seeded stream decides every request's
  // endpoint and design up front; clients take rounds round-robin, so the
  // set of requests sent is identical across runs (arrival order is not,
  // and need not be — responses are order-independent).
  std::mt19937_64 rng(opts.seed);
  std::vector<PlannedRequest> plan;
  plan.reserve((std::size_t)opts.requests);
  for (int i = 0; i < opts.requests; ++i) {
    const std::string& ep = mix[rng() % mix.size()];
    const DesignInfo& d = designs[rng() % designs.size()];
    PlannedRequest pr;
    pr.target = "/" + ep;
    json::Node body = json::Node::object();
    body["design"] = d.name;
    if (ep == "sta") {
      body["clock"] = 10;
    } else if (ep == "sim") {
      json::Node& in = body["inputs"] = json::Node::object();
      for (const auto& [k, v] : d.inputs) in[k] = v;
    } else if (ep == "prove") {
      body["options"]["opt"] = std::string(options::token(OptLevel::Standard));
    }
    pr.body = body.dump();
    plan.push_back(std::move(pr));
  }

  // Fire: each client owns one keep-alive connection and its round-robin
  // slice of the plan.
  struct ClientStats {
    std::vector<double> latenciesMs;
    int transportErrors = 0;
    int httpErrors = 0;
    int invalidJson = 0;
  };
  std::vector<ClientStats> stats((std::size_t)opts.clients);
  std::map<std::string, std::vector<double>> byEndpoint;
  std::mutex byEndpointM;

  WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve((std::size_t)opts.clients);
  for (int ci = 0; ci < opts.clients; ++ci) {
    threads.emplace_back([&, ci] {
      ClientStats& s = stats[(std::size_t)ci];
      HttpClient client(host, port);
      for (std::size_t i = (std::size_t)ci; i < plan.size();
           i += (std::size_t)opts.clients) {
        const PlannedRequest& pr = plan[i];
        WallTimer t;
        const ClientResponse r = client.post(pr.target, pr.body);
        const double ms = t.seconds() * 1000.0;
        if (!r.ok) {
          ++s.transportErrors;
          continue;
        }
        s.latenciesMs.push_back(ms);
        if (r.status >= 400) ++s.httpErrors;
        else if (!json::valid(r.body)) ++s.invalidJson;
        std::lock_guard<std::mutex> lk(byEndpointM);
        byEndpoint[pr.target].push_back(ms);
      }
    });
  }
  for (auto& t : threads) t.join();
  rep.wallSeconds = wall.seconds();

  std::vector<double> all;
  for (const auto& s : stats) {
    all.insert(all.end(), s.latenciesMs.begin(), s.latenciesMs.end());
    rep.transportErrors += s.transportErrors;
    rep.httpErrors += s.httpErrors;
    rep.invalidJson += s.invalidJson;
  }
  rep.requestsSent = opts.requests;
  std::sort(all.begin(), all.end());
  rep.p50Ms = percentile(all, 0.50);
  rep.p99Ms = percentile(all, 0.99);
  rep.requestsPerSecond =
      rep.wallSeconds > 0 ? (double)all.size() / rep.wallSeconds : 0;

  // Cache hit rate straight from the daemon's metrics snapshot.
  double cacheHits = 0, cacheMisses = 0;
  {
    HttpClient probe(host, port);
    const ClientResponse r = probe.get("/metrics");
    if (r.ok) {
      if (const auto doc = json::parse(r.body)) {
        if (const json::Node* g = doc->get("gauges")) {
          rep.cacheHitRate = g->getNumber("serve.cache.hit_rate");
          cacheHits = g->getNumber("serve.cache.hits");
          cacheMisses = g->getNumber("serve.cache.misses");
        }
      }
    }
  }

  if (!opts.reportPath.empty()) {
    json::Node root = json::Node::object();
    root["benchmark"] = "serve_loadgen";
    root["url"] = opts.url;
    root["clients"] = opts.clients;
    root["requests"] = opts.requests;
    root["mix"] = opts.mix;
    root["seed"] = (std::size_t)opts.seed;
    root["wall_seconds"] = rep.wallSeconds;
    root["requests_per_second"] = rep.requestsPerSecond;
    json::Node lat = json::Node::object();
    lat["p50_ms"] = rep.p50Ms;
    lat["p90_ms"] = percentile(all, 0.90);
    lat["p99_ms"] = rep.p99Ms;
    lat["max_ms"] = all.empty() ? 0.0 : all.back();
    double sum = 0;
    for (double v : all) sum += v;
    lat["mean_ms"] = all.empty() ? 0.0 : sum / (double)all.size();
    root["latency"] = std::move(lat);
    json::Node errs = json::Node::object();
    errs["transport"] = rep.transportErrors;
    errs["http"] = rep.httpErrors;
    errs["invalid_json"] = rep.invalidJson;
    root["errors"] = std::move(errs);
    json::Node cache = json::Node::object();
    cache["hit_rate"] = rep.cacheHitRate;
    cache["hits"] = cacheHits;
    cache["misses"] = cacheMisses;
    root["cache"] = std::move(cache);
    json::Node eps = json::Node::object();
    for (auto& [target, lats] : byEndpoint) {
      std::sort(lats.begin(), lats.end());
      json::Node e = json::Node::object();
      e["count"] = lats.size();
      e["p50_ms"] = percentile(lats, 0.50);
      e["p99_ms"] = percentile(lats, 0.99);
      eps[target] = std::move(e);
    }
    root["endpoints"] = std::move(eps);
    if (!json::writeFile(opts.reportPath, root))
      rep.error = "cannot write " + opts.reportPath;
  }
  return rep;
}

}  // namespace mphls::serve
