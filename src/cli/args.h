// Command-line grammar of `mphls`: one flag-table parser and, per
// subcommand, the table of flags it accepts. Every flag is one row — its
// spelling, the metavariable usage() prints, and how its value is parsed,
// range-checked and stored — so a value is always parsed as a whole token
// ("3x" is not 3) and rejected the same way everywhere. The synthesis
// options come from the shared option table (core/options.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/synthesizer.h"
#include "fuzz/campaign.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace mphls::cli {

/// One flag. A switch has an empty metavar and is applied with "".
struct Flag {
  std::string_view name;
  std::string metavar;
  std::function<bool(std::string_view value)> apply;
};

/// Parse argv[first..] against `flags`. A token that is not a flag goes to
/// `positional` (none: rejected). On a bad line, prints what was wrong and
/// the usage, and returns false.
bool parseFlags(const std::vector<Flag>& flags, int argc, char** argv,
                int first,
                const std::function<void(std::string_view)>& positional = {});

/// The design subcommands, in the order of their tokens (args.cpp) and
/// runners (main.cpp). A token may follow options (`mphls --opt none lint
/// d.bdl`); none given means Synth.
enum class DesignCmd { Synth, Lint, Analyze, Prove, Sta, Profile };

/// `mphls [synth|lint|analyze|prove|sta|profile] [options] design.bdl`.
struct DesignArgs {
  DesignCmd cmd = DesignCmd::Synth;
  bool cmdGiven = false;  ///< the subcommand token was spelled out
  std::string file;
  std::string top;
  std::string verilogOut;
  std::string dotOut;
  std::vector<std::map<std::string, std::uint64_t>> verifyRuns;
  std::string dotFactsOut;
  std::string traceOut;  ///< --trace: Chrome trace_event JSON
  std::string vcdOut;    ///< --vcd: simulation waveform
  std::string statsOut;  ///< --stats: metrics registry JSON
  std::string logFile;   ///< --log-file: JSONL structured log sink
  std::string logLevel;  ///< --log-level: debug|info|warn|error
  std::string flightIn;  ///< profile --flight: decode a flight dump
  int sweep = 0;
  bool quiet = false;
  double staClock = 0;       ///< --clock: target period (0 = estimated)
  int staPaths = 5;          ///< --paths: K worst paths to report
  bool provePasses = false;  ///< --prove-passes: per-pass validation
  bool jsonFormat = false;   ///< --format json
  fuzz::InjectedBug inject = fuzz::InjectedBug::None;
  bool builtins = false;
  bool optExplicit = false;  ///< --opt given: analyze post-pipeline IR
  SynthesisOptions opts;

  std::vector<Flag> flags();
};

/// `mphls fuzz`: differential co-simulation campaigns and corpus replay.
struct FuzzArgs {
  FuzzArgs() {
    campaign.jobs = 0;  // hardware concurrency unless --jobs given
    campaign.corpusDir = "fuzz-corpus";
  }

  fuzz::CampaignOptions campaign;
  std::string matrixName = "standard";
  std::string replayDir;
  std::string outFile;
  std::string traceOut, statsOut, logFile, logLevel;
  bool save = true;
  bool quiet = false;

  std::vector<Flag> flags();
};

/// `mphls serve`: the synthesis daemon.
struct ServeArgs {
  ServeArgs() { server.port = 8080; }

  serve::ServerOptions server;
  std::string logFile, logLevel;
  std::string flightDump = "mphls-flight.dump";
  bool quiet = false;

  std::vector<Flag> flags();
};

/// `mphls loadgen`: a deterministic request mix against a daemon.
struct LoadgenArgs {
  serve::LoadgenOptions loadgen;
  bool quiet = false;

  std::vector<Flag> flags();
};

/// `mphls [options] design.bdl`; nullopt (after printing what was wrong
/// and the usage) on a bad command line.
[[nodiscard]] std::optional<DesignArgs> parseDesign(int argc, char** argv);

/// `mphls <tool> [flags]` (argv[1] is the tool), likewise.
template <class A>
[[nodiscard]] std::optional<A> parseTool(int argc, char** argv) {
  A a;
  if (!parseFlags(a.flags(), argc, argv, 2)) return std::nullopt;
  return a;
}

/// The usage text, generated from the flag tables.
[[nodiscard]] std::string usage();

}  // namespace mphls::cli
