// Shared machine-readable command layer: one implementation of every JSON
// report the system can produce, used verbatim by the CLI (`mphls
// synth/lint/analyze/sta/prove --format json`) and by the serve daemon's
// POST endpoints. The daemon can never drift from the offline tool because
// both render their responses through these functions; the golden
// differential test (tests/test_serve.cpp) and the ci.sh serve smoke
// assert byte equality end to end.
//
// Every command compiles through the process-wide FrontendCache, so repeat
// traffic (a daemon serving the same source many times, a DSE sweep, the
// test battery) pays the frontend once per (source, top, opt, narrow) key.
//
// Reports are deterministic by construction: they carry no wall-clock
// times, no machine identity, and no iteration-order-dependent fields.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "check/report.h"
#include "common/json_reader.h"
#include "core/synthesizer.h"
#include "sta/sta.h"

namespace mphls::cmd {

/// One command invocation: the report key (`name` — the file path when the
/// CLI runs it, the client-supplied name under the daemon), the BDL source
/// to operate on, and the synthesis option vector.
struct Request {
  std::string name;
  std::string source;
  std::string top;
  SynthesisOptions opts;
};

/// Outcome of one command. `body` is the exact text the CLI prints on
/// stdout (trailing newline included) and the exact HTTP response body the
/// daemon returns. `ok` carries the CLI exit-0 semantics (lint findings,
/// failed proofs and negative slack make it false while the body is still
/// a well-formed report). `inputError` is set when the source itself was
/// rejected (parse/verify failure) — the daemon maps it to 422.
struct Result {
  std::string body;
  bool ok = true;
  bool inputError = false;
};

/// Synthesis summary report: design shape, scheduler, latency, datapath
/// and controller structure, area/cycle-time estimates.
[[nodiscard]] Result synthJson(const Request& req);

/// Why a command could not run (`inputError`: the source was rejected).
struct Failure {
  std::string error;
  bool inputError = false;
};

/// A command's unrendered result, or (no value) its failure. The JSON
/// functions and the CLI's text reports both render these.
template <class T>
struct Outcome {
  std::optional<T> value;
  Failure failure;
};

/// Full static verification report: the semantic lints, the synthesis
/// stage exits' findings and the netlist lint; lintJson is what `mphls
/// lint --format json` prints.
[[nodiscard]] Outcome<CheckReport> lintReport(const Request& req);
[[nodiscard]] Result lintJson(const Request& req);

/// The behavioral IR analyze reports on, out of the frontend cache: the
/// frontend output or, with `postPipeline`, the configured pass
/// pipeline's; narrowed when opts.narrow asks (`mphls analyze --opt ...
/// --narrow`).
[[nodiscard]] Outcome<std::shared_ptr<const Function>> analyzedFunction(
    const Request& req, bool postPipeline);

/// Semantic lint report (checkSemantics) over analyzedFunction.
[[nodiscard]] Result analyzeJson(const Request& req, bool postPipeline);

/// Path-level static timing analysis plus the timing lint's findings
/// (`clockNs` <= 0: at the estimated clock, where the synthesis timing
/// exit's result is reused); staJson is what `mphls sta --format json`
/// prints for one file.
struct StaReport {
  sta::StaResult timing;
  CheckReport lint;
};
[[nodiscard]] Outcome<StaReport> staReport(const Request& req, double clockNs,
                                           int maxPaths);
[[nodiscard]] Result staJson(const Request& req, double clockNs,
                             int maxPaths);

/// A seeded miscompile for the prove gate's self-test (`mphls prove
/// --inject`; fuzz::proveInjection builds one). `ir` rewrites a copy of
/// the optimized function, which is then proved against the original
/// under the label `name`, with no synthesis; `design` rewrites the
/// synthesized design before its proof. Each returns the number of sites
/// it changed; none makes the injection inapplicable, noted as `none`.
struct ProveInjection {
  std::string name;
  std::string none;
  std::function<int(Function&)> ir;
  std::function<int(RtlDesign&)> design;
};

/// Formal equivalence report. `applicable` is false when an injection
/// found no site in this design.
struct ProveReport {
  CheckReport report;
  bool applicable = true;
};

/// The configured pass pipeline (each pass translation-validated with
/// `provePasses`), synthesis, the optional injection, and the proof that
/// behavior and RTL are equivalent. proveJson renders it as a one-element
/// array (the prove CLI convention).
[[nodiscard]] Outcome<ProveReport> proveReport(
    const Request& req, bool provePasses, const ProveInjection& inject = {});
[[nodiscard]] Result proveJson(const Request& req, bool provePasses);

/// Simulate the synthesized RTL on `inputs` (unset input ports default to
/// zero) and report outputs, cycle count and halt status.
[[nodiscard]] Result simJson(const Request& req,
                             const std::map<std::string, std::uint64_t>& inputs);

/// {<key>:<name>, ...} followed by a CheckReport's members, shared by the
/// lint, analyze and prove renderers.
[[nodiscard]] json::Node reportJson(const std::string& key,
                                    const std::string& name,
                                    const CheckReport& rep);

/// One sta report as a json::Node: the StaResult plus the timing lint's
/// findings in the lint/prove diagnostics convention (sorted/deduped).
/// Exposed so the CLI's `sta --builtins --format json` array uses the
/// same element renderer as staJson.
[[nodiscard]] json::Node staJsonNode(const std::string& key,
                                     const std::string& name,
                                     const StaReport& r);

}  // namespace mphls::cmd
