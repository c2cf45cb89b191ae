#include "cli/args.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <utility>

#include "core/options.h"
#include "obs/log.h"
#include "vm/sim_engine.h"

namespace mphls::cli {

namespace {

/// Report a bad command line, then the usage; returns false.
bool reject(const std::string& why) {
  std::cerr << "mphls: " << why << "\n" << usage();
  return false;
}

/// Whole-token unsigned integer in any base strtoull accepts ("0x10").
bool parseU64(std::string_view text, std::uint64_t& out) {
  const std::string s(text);
  if (s.empty() || !std::isdigit((unsigned char)s[0])) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

Flag sw(std::string_view name, bool& target, bool value = true) {
  return {name, "", [&target, value](std::string_view) {
            target = value;
            return true;
          }};
}

Flag text(std::string_view name, std::string metavar, std::string& target) {
  return {name, std::move(metavar), [&target](std::string_view v) {
            target = v;
            return true;
          }};
}

template <class T>
Flag number(std::string_view name, std::string metavar, T& target, T lo,
            T hi = std::numeric_limits<T>::max()) {
  return {name, std::move(metavar), [&target, lo, hi](std::string_view v) {
            return options::parseNumber(v, lo, hi, target);
          }};
}

Flag u64(std::string_view name, std::uint64_t& target) {
  return {name, "S",
          [&target](std::string_view v) { return parseU64(v, target); }};
}

Flag logLevelFlag(std::string& target) {
  return {"--log-level", "debug|info|warn|error",
          [&target](std::string_view v) {
            target = v;
            return obs::parseLogLevel(target) != obs::LogLevel::Off;
          }};
}

Flag injectFlag(fuzz::InjectedBug& target) {
  return {"--inject", "mul|sched|bind", [&target](std::string_view v) {
            return fuzz::parseInjectedBug(std::string(v), target);
          }};
}

/// "a=1,b=2": one --verify input vector.
bool parseInputs(std::string_view spec,
                 std::map<std::string, std::uint64_t>& out) {
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    const std::string_view item = spec.substr(0, comma);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos ||
        !parseU64(item.substr(eq + 1), out[std::string(item.substr(0, eq))]))
      return false;
    spec = comma == std::string_view::npos ? "" : spec.substr(comma + 1);
  }
  return true;
}

/// A table row's metavariable: "a|b|c" for an enum, "N" for an int, none
/// for a switch.
std::string metavar(const options::Option& o) {
  if (o.kind != options::Kind::Enum)
    return o.kind == options::Kind::Int ? "N" : "";
  std::string s;
  for (const options::Token& t : o.tokens) {
    if (!s.empty()) s += '|';
    s += t.text;
  }
  return s;
}

constexpr std::string_view kDesignCmds[] = {"synth", "lint", "analyze",
                                            "prove", "sta",  "profile"};

/// "--flag METAVAR", bracketed when `optional`. Built by appends: GCC 12
/// -O3 warns (-Wrestrict, falsely) on "literal" + std::string temporaries.
std::string spell(const Flag& f, bool optional) {
  std::string s = optional ? "[" : "";
  s += f.name;
  if (!f.metavar.empty()) (s += ' ') += f.metavar;
  if (optional) s += ']';
  return s;
}

/// Append `words` to `out`, `sep` apart, as lines no wider than 78
/// columns after the first, each continuation indented by `indent`.
void wrap(std::string& out, std::string line, std::size_t indent,
          const std::vector<std::string>& words, std::string_view sep) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i > 0 && line.size() + sep.size() + words[i].size() > 78)
      out += std::exchange(line, std::string(indent, ' ')) + "\n";
    else if (i > 0)
      line += sep;
    line += words[i];
  }
  out += line + "\n";
}

template <class A>
void toolUsage(std::string& out, std::string_view name) {
  A a;
  std::vector<std::string> words;
  for (const Flag& f : a.flags()) words.push_back(spell(f, true));
  std::string head = "       mphls ";
  (head += name) += ' ';
  wrap(out, head, head.size(), words, " ");
}

}  // namespace

bool parseFlags(const std::vector<Flag>& flags, int argc, char** argv,
                int first,
                const std::function<void(std::string_view)>& positional) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : flags)
      if (f.name == arg) flag = &f;
    if (!flag && (arg.starts_with("-") || !positional))
      return reject("unexpected argument '" + arg + "'");
    if (!flag) {
      positional(arg);
      continue;
    }
    std::string value;
    if (!flag->metavar.empty()) {
      if (++i >= argc) return reject(arg + " needs a value");
      value = argv[i];
    }
    if (!flag->apply(value))
      return reject("bad " + arg + " value '" + value + "'");
  }
  return true;
}

std::vector<Flag> DesignArgs::flags() {
  std::vector<Flag> f = {text("--top", "NAME", top)};
  for (const options::Option& o : options::table()) {
    // An explicit --opt (even "standard") makes analyze run post-pipeline.
    f.push_back({o.flag, metavar(o), [this, &o](std::string_view v) {
                   optExplicit |= o.flag == "--opt";
                   return options::applyToken(o, v, opts);
                 }});
  }
  std::vector<Flag> rest = {
      text("--verilog", "FILE", verilogOut),
      text("--dot", "FILE", dotOut),
      {"--verify", "a=1,b=2",
       [this](std::string_view v) {
         return parseInputs(v, verifyRuns.emplace_back());
       }},
      number("--sweep", "N", sweep, 0),
      text("--dot-facts", "FILE", dotFactsOut),
      text("--trace", "FILE", traceOut),
      text("--vcd", "FILE", vcdOut),
      text("--stats", "FILE", statsOut),
      text("--log-file", "FILE", logFile),
      logLevelFlag(logLevel),
      text("--flight", "DUMP", flightIn),
      number("--clock", "NS", staClock, std::nextafter(0.0, 1.0)),
      number("--paths", "K", staPaths, 0),
      sw("--builtins", builtins),
      sw("--prove-passes", provePasses),
      {"--format", "text|json",
       [this](std::string_view v) {
         jsonFormat = v == "json";
         return v == "json" || v == "text";
       }},
      injectFlag(inject),
      sw("--quiet", quiet),
  };
  f.insert(f.end(), rest.begin(), rest.end());
  return f;
}

std::vector<Flag> FuzzArgs::flags() {
  fuzz::CampaignOptions& c = campaign;
  return {
      number("--seeds", "N", c.seeds, 1),
      u64("--seed-base", c.seedBase),
      number("--jobs", "N", c.jobs, 1),
      {"--matrix", "quick|standard|full",
       [this](std::string_view v) {
         fuzz::FuzzMatrix m;
         matrixName = v;
         if (!fuzz::FuzzMatrix::parse(matrixName, m)) return false;
         campaign.diff.points = m.points();
         return true;
       }},
      number("--trials", "N", c.diff.trials, 1),
      {"--engine", "interp|vm",
       [&c](std::string_view v) {
         return vm::parseEngineKind(std::string(v), c.diff.engine.kind);
       }},
      number("--cross-check", "RATE", c.diff.engine.crossCheck, 0.0, 1.0),
      sw("--reduce", c.reduce),
      text("--corpus", "DIR", c.corpusDir),
      sw("--no-save", save, false),
      text("--replay", "DIR", replayDir),
      injectFlag(c.diff.inject),
      text("--out", "FILE", outFile),
      text("--trace", "FILE", traceOut),
      text("--stats", "FILE", statsOut),
      text("--log-file", "FILE", logFile),
      logLevelFlag(logLevel),
      sw("--quiet", quiet),
  };
}

std::vector<Flag> ServeArgs::flags() {
  return {
      number("--port", "P", server.port, 0, 65535),
      number("--jobs", "N", server.jobs, 1),
      number("--max-connections", "N", server.maxConnections, 1),
      text("--log-file", "FILE", logFile),
      logLevelFlag(logLevel),
      text("--flight-dump", "PATH", flightDump),
      sw("--quiet", quiet),
  };
}

std::vector<Flag> LoadgenArgs::flags() {
  return {
      text("--url", "http://host:port", loadgen.url),
      number("--clients", "N", loadgen.clients, 1),
      number("--requests", "M", loadgen.requests, 1),
      text("--mix", "synth:lint:sim", loadgen.mix),
      u64("--seed", loadgen.seed),
      text("--out", "FILE", loadgen.reportPath),
      sw("--quiet", quiet),
  };
}

std::optional<DesignArgs> parseDesign(int argc, char** argv) {
  DesignArgs a;
  a.opts = options::defaults();
  if (!parseFlags(a.flags(), argc, argv, 1, [&a](std::string_view tok) {
        for (std::size_t c = 0; c < std::size(kDesignCmds); ++c)
          if (tok == kDesignCmds[c] && !a.cmdGiven && a.file.empty()) {
            a.cmd = (DesignCmd)c;
            a.cmdGiven = true;
            return;
          }
        a.file = tok;
      }))
    return std::nullopt;
  const bool builtinsCmd = a.cmd == DesignCmd::Analyze ||
                           a.cmd == DesignCmd::Prove || a.cmd == DesignCmd::Sta;
  const bool flightDecode = a.cmd == DesignCmd::Profile && !a.flightIn.empty();
  const char* err = nullptr;
  if (a.builtins && !builtinsCmd)
    err = "--builtins needs analyze, prove or sta";
  else if (!a.flightIn.empty() && a.cmd != DesignCmd::Profile)
    err = "--flight needs profile";
  else if (a.file.empty() && !a.builtins && !flightDecode)
    err = "no design file";
  else if (a.inject != fuzz::InjectedBug::None && a.cmd != DesignCmd::Prove)
    err = "--inject needs prove";
  if (err) reject(err);
  return err ? std::nullopt : std::optional<DesignArgs>(std::move(a));
}

std::string usage() {
  std::string out =
      "usage: mphls [synth|lint|analyze|prove|sta|profile] [options]"
      " design.bdl\n"
      "       mphls analyze|prove|sta [options] --builtins\n"
      "       mphls profile --flight DUMP\n";
  DesignArgs d;
  std::vector<std::string> words;
  for (const Flag& f : d.flags())
    if (f.name != "--flight") words.push_back(spell(f, false));
  wrap(out, "  options: ", 4, words, "  ");
  toolUsage<FuzzArgs>(out, "fuzz");
  toolUsage<ServeArgs>(out, "serve");
  toolUsage<LoadgenArgs>(out, "loadgen");
  return out;
}

}  // namespace mphls::cli
