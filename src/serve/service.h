// Endpoint layer of the synthesis daemon: maps parsed HTTP requests onto
// the shared command layer (core/commands.h), independent of any socket.
// Keeping dispatch socket-free means the protocol battery can drive it
// in-process, and the golden differential test can assert byte equality
// against the offline CLI without a network in the loop.
//
// Routes:
//   POST /synth    synthesis summary report        cmd::synthJson
//   POST /lint     static verification report      cmd::lintJson
//   POST /analyze  semantic lint report            cmd::analyzeJson
//   POST /sta      static timing analysis report   cmd::staJson
//   POST /prove    formal equivalence report       cmd::proveJson
//   POST /sim      RTL simulation result           cmd::simJson
//   GET  /healthz  liveness probe
//   GET  /metrics  obs registry snapshot (JSON; ?format=prometheus for
//                  text exposition)
//   GET  /designs  built-in designs with sources
//   GET  /debug/flight  flight-recorder ring decode (post-mortem aid)
//
// POST bodies are JSON: {"name": str?, "source": str | "design": builtin,
// "top": str?, "options": {...}} plus per-route extras ("clock"/"paths"
// for /sta, "prove_passes" for /prove, "inputs" for /sim, "post_pipeline"
// for /analyze). Unknown option keys are rejected with 400 — a mistyped
// option must never silently fall back to a default.
#pragma once

#include <cstdint>
#include <string>

#include "core/options.h"
#include "core/synthesizer.h"
#include "serve/http.h"

namespace mphls::serve {

struct ServiceOptions {
  /// Base option vector; request "options" members override per request.
  /// The CLI's baseline, so a request with no "options" produces the
  /// CLI's exact bytes.
  SynthesisOptions defaults = options::defaults();
};

struct ServiceResponse {
  int status = 200;
  std::string body;
  std::string contentType = "application/json";
};

class Service {
 public:
  explicit Service(ServiceOptions opts = {});

  /// Dispatch one request. `sessionId` is the connection's stable id; it
  /// labels the serve.* trace span so concurrent sessions separate in the
  /// trace viewer. Thread-safe: handlers share only the FrontendCache and
  /// the metrics registry, both already concurrent.
  [[nodiscard]] ServiceResponse handle(const HttpRequest& req,
                                       std::uint64_t sessionId) const;

  /// Requests dispatched so far (all sessions).
  [[nodiscard]] std::uint64_t requestCount() const;

 private:
  ServiceOptions opts_;
};

}  // namespace mphls::serve
