// The synthesis option table (core/options.h) and the CLI flag parser
// (cli/args.h): the CLI-flag path and the serve JSON path must decode every
// row and token to the same SynthesisOptions, reject the same bad values,
// and every enum value's token must parse back to that value (the fuzz
// matrix labels are spelled with these tokens).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/args.h"
#include "common/json_reader.h"
#include "core/options.h"

using namespace mphls;

namespace {

/// argv for a parse* call; the strings outlive the call.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strs(std::move(args)) {
    for (std::string& s : strs) ptrs.push_back(s.data());
  }
  int argc() const { return (int)ptrs.size(); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> strs;
  std::vector<char*> ptrs;
};

/// CLI path: `mphls <flag> [value] d.bdl`.
std::optional<SynthesisOptions> viaCli(std::vector<std::string> flag) {
  flag.insert(flag.begin(), "mphls");
  flag.push_back("d.bdl");
  Argv av(std::move(flag));
  const auto a = cli::parseDesign(av.argc(), av.argv());
  if (!a) return std::nullopt;
  return a->opts;
}

/// JSON path: {"<key>": <value>} over the serve defaults. "" on success.
std::string viaJson(const std::string& key, const std::string& value,
                    SynthesisOptions& out) {
  const auto doc = json::parse("{\"" + key + "\": " + value + "}");
  EXPECT_NE(doc, nullptr) << value;
  out = options::defaults();
  return doc ? options::applyJson(*doc, out) : "unparseable";
}

/// "bad <what>", the serve 400 text for a bad value of `o`. Built by
/// appends: GCC 12 -O3 reports a false -Wrestrict on "literal" +
/// std::string temporaries.
std::string badText(const options::Option& o) {
  std::string s = "bad ";
  s += o.what;
  return s;
}

std::string jsonString(std::string_view v) {
  std::string s = "\"";
  (s += v) += '"';
  return s;
}

void expectSame(const SynthesisOptions& a, const SynthesisOptions& b) {
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.listPriority, b.listPriority);
  EXPECT_EQ(a.opt, b.opt);
  EXPECT_EQ(a.fuMethod, b.fuMethod);
  EXPECT_EQ(a.regMethod, b.regMethod);
  EXPECT_EQ(a.encoding, b.encoding);
  EXPECT_EQ(a.timeConstraint, b.timeConstraint);
  EXPECT_EQ(a.resources.universal, b.resources.universal);
  EXPECT_EQ(a.resources.universalCount, b.resources.universalCount);
  EXPECT_EQ(a.resources.perClass, b.resources.perClass);
  EXPECT_EQ(a.latencies.of(OpKind::Mul), b.latencies.of(OpKind::Mul));
  EXPECT_EQ(a.latencies.of(OpKind::Div), b.latencies.of(OpKind::Div));
  EXPECT_EQ(a.narrow, b.narrow);
  EXPECT_EQ(a.prove, b.prove);
  EXPECT_EQ(a.jobs, b.jobs);
}

}  // namespace

TEST(Options, DefaultsAreTheCliAndServeBaseline) {
  const SynthesisOptions d = options::defaults();
  EXPECT_TRUE(d.resources.universal);
  EXPECT_EQ(d.resources.universalCount, 2);
  EXPECT_EQ(d.scheduler, SchedulerKind::List);
  EXPECT_EQ(d.opt, OptLevel::Standard);
  EXPECT_TRUE(d.latencies.isUnit());
  const auto cli = viaCli({});
  ASSERT_TRUE(cli);
  expectSame(*cli, d);
}

TEST(Options, CliAndJsonPathsAgreeOnEveryRowAndToken) {
  int compared = 0;
  for (const options::Option& o : options::table()) {
    const std::string flag(o.flag), key(o.key);
    switch (o.kind) {
      case options::Kind::Enum:
        for (const options::Token& t : o.tokens) {
          SCOPED_TRACE(testing::Message() << flag << " " << t.text);
          const auto cli = viaCli({flag, std::string(t.text)});
          ASSERT_TRUE(cli);
          SynthesisOptions js;
          ASSERT_EQ(viaJson(key, jsonString(t.text), js), "");
          expectSame(*cli, js);
          ++compared;
        }
        break;
      case options::Kind::Int:
        for (const char* n : {"1", "3", "17"}) {
          SCOPED_TRACE(testing::Message() << flag << " " << n);
          const auto cli = viaCli({flag, n});
          ASSERT_TRUE(cli);
          if (key.empty()) continue;  // CLI-only
          SynthesisOptions js;
          ASSERT_EQ(viaJson(key, n, js), "");
          expectSame(*cli, js);
          ++compared;
        }
        break;
      case options::Kind::Bool: {
        SCOPED_TRACE(flag);
        const auto on = viaCli({flag});
        ASSERT_TRUE(on) << flag;
        // Off: the default.
        const auto off = viaCli({});
        ASSERT_TRUE(off);
        if (key.empty()) break;  // CLI-only
        SynthesisOptions js;
        ASSERT_EQ(viaJson(key, "true", js), "");
        expectSame(*on, js);
        ASSERT_EQ(viaJson(key, "false", js), "");
        expectSame(*off, js);
        compared += 2;
        break;
      }
    }
  }
  EXPECT_GT(compared, 30);
}

TEST(Options, BadTokensAndNumbersAreRejectedByBothPaths) {
  for (const options::Option& o : options::table()) {
    const std::string flag(o.flag), key(o.key);
    if (o.kind == options::Kind::Bool) {
      // A switch takes no value; JSON wants a bool.
      SynthesisOptions js;
      if (!key.empty()) {
        EXPECT_EQ(viaJson(key, "1", js), badText(o));
        EXPECT_EQ(viaJson(key, "\"yes\"", js), badText(o));
      }
      continue;
    }
    const std::vector<std::string> bad =
        o.kind == options::Kind::Enum
            ? std::vector<std::string>{"magic", "", "LIST", "force "}
            : std::vector<std::string>{"3x", "abc", "", "2.7", "1e300",
                                       "99999999999", "0x10", " 3"};
    for (const std::string& b : bad) {
      EXPECT_FALSE(viaCli({flag, b})) << flag << " '" << b << "'";
      if (key.empty()) continue;
      SynthesisOptions js;
      if (o.kind == options::Kind::Enum) {
        EXPECT_EQ(viaJson(key, jsonString(b), js), badText(o) + ": " + b);
      } else {
        // Not a JSON number at all.
        EXPECT_EQ(viaJson(key, jsonString(b), js), badText(o));
      }
    }
    if (o.kind == options::Kind::Int && !key.empty()) {
      for (const char* n : {"1e300", "-1e300", "2.7", "2147483648"}) {
        SynthesisOptions js;
        EXPECT_EQ(viaJson(key, n, js), badText(o)) << n;
      }
    }
    // A flag at the end of the line is missing its value.
    Argv av({"mphls", "d.bdl", flag});
    EXPECT_FALSE(cli::parseDesign(av.argc(), av.argv())) << flag;
  }
  // Below-range values: zero FUs, zero jobs.
  EXPECT_FALSE(viaCli({"--fus", "0"}));
  EXPECT_FALSE(viaCli({"--jobs", "0"}));
  SynthesisOptions js;
  EXPECT_EQ(viaJson("fus", "0", js), "bad fus");
  EXPECT_EQ(viaJson("optlevel", "\"none\"", js), "unknown option: optlevel");
  // The stage-exit checks always run: there is no option to turn them off.
  EXPECT_FALSE(viaCli({"--no-check"}));
  EXPECT_FALSE(viaCli({"--check"}));
  EXPECT_EQ(viaJson("check", "false", js), "unknown option: check");
  EXPECT_EQ(viaJson("opt", "\"fast\"", js), "bad opt level: fast");
}

TEST(Options, EveryEnumValueTokenParsesBack) {
  const auto roundTrip = [](std::string_view flag, std::string_view tok) {
    const auto o = viaCli({std::string(flag), std::string(tok)});
    EXPECT_TRUE(o) << flag << " " << tok;
    return o.value_or(SynthesisOptions{});
  };
  for (SchedulerKind v :
       {SchedulerKind::Serial, SchedulerKind::Asap, SchedulerKind::List,
        SchedulerKind::ForceDirected, SchedulerKind::Freedom,
        SchedulerKind::BranchBound, SchedulerKind::Transform})
    EXPECT_EQ(roundTrip("--scheduler", options::token(v)).scheduler, v);
  for (ListPriority v : {ListPriority::PathLength, ListPriority::Mobility,
                         ListPriority::Urgency, ListPriority::ProgramOrder})
    EXPECT_EQ(roundTrip("--priority", options::token(v)).listPriority, v);
  for (OptLevel v : {OptLevel::None, OptLevel::Standard, OptLevel::Aggressive})
    EXPECT_EQ(roundTrip("--opt", options::token(v)).opt, v);
  for (FuAllocMethod v :
       {FuAllocMethod::GreedyLocal, FuAllocMethod::GreedyGlobal,
        FuAllocMethod::InterconnectBlind, FuAllocMethod::Clique})
    EXPECT_EQ(roundTrip("--fu-alloc", options::token(v)).fuMethod, v);
  for (RegAllocMethod v : {RegAllocMethod::LeftEdge, RegAllocMethod::Clique,
                           RegAllocMethod::Naive})
    EXPECT_EQ(roundTrip("--reg-alloc", options::token(v)).regMethod, v);
  for (StateEncoding v :
       {StateEncoding::Binary, StateEncoding::Gray, StateEncoding::OneHot})
    EXPECT_EQ(roundTrip("--encoding", options::token(v)).encoding, v);
  // The fuzz labels' reg= and opt= coordinates are these tokens.
  EXPECT_EQ(options::token(RegAllocMethod::LeftEdge), "leftedge");
  EXPECT_EQ(options::token(OptLevel::Aggressive), "aggressive");
}

TEST(CliArgs, JunkNumbersAreRejected) {
  Argv fus({"mphls", "--fus", "3x", "--quiet", "d.bdl"});
  EXPECT_FALSE(cli::parseDesign(fus.argc(), fus.argv()));
  Argv tc({"mphls", "--scheduler", "force", "--time-constraint", "abc",
           "d.bdl"});
  EXPECT_FALSE(cli::parseDesign(tc.argc(), tc.argv()));
  Argv port({"mphls", "serve", "--port", "abc"});
  EXPECT_FALSE(cli::parseTool<cli::ServeArgs>(port.argc(), port.argv()));
  Argv port2({"mphls", "serve", "--port", "65536"});
  EXPECT_FALSE(cli::parseTool<cli::ServeArgs>(port2.argc(), port2.argv()));
  Argv nan({"mphls", "fuzz", "--cross-check", "nan"});
  EXPECT_FALSE(cli::parseTool<cli::FuzzArgs>(nan.argc(), nan.argv()));
  Argv rate({"mphls", "fuzz", "--cross-check", "1.5"});
  EXPECT_FALSE(cli::parseTool<cli::FuzzArgs>(rate.argc(), rate.argv()));
  Argv seed({"mphls", "fuzz", "--seed-base", "-1"});
  EXPECT_FALSE(cli::parseTool<cli::FuzzArgs>(seed.argc(), seed.argv()));
  Argv clients({"mphls", "loadgen", "--clients", "2e3"});
  EXPECT_FALSE(
      cli::parseTool<cli::LoadgenArgs>(clients.argc(), clients.argv()));
  Argv clock({"mphls", "sta", "--clock", "0", "d.bdl"});
  EXPECT_FALSE(cli::parseDesign(clock.argc(), clock.argv()));
  Argv verify({"mphls", "--verify", "x=ten", "d.bdl"});
  EXPECT_FALSE(cli::parseDesign(verify.argc(), verify.argv()));
  Argv level({"mphls", "serve", "--log-level", "loud"});
  EXPECT_FALSE(cli::parseTool<cli::ServeArgs>(level.argc(), level.argv()));
  // The fuzz oracles have no off switch.
  Argv noCheck({"mphls", "fuzz", "--no-check"});
  EXPECT_FALSE(cli::parseTool<cli::FuzzArgs>(noCheck.argc(), noCheck.argv()));
}

TEST(CliArgs, WellFormedLinesParse) {
  Argv serve({"mphls", "serve", "--port", "0", "--jobs", "3", "--quiet"});
  const auto s = cli::parseTool<cli::ServeArgs>(serve.argc(), serve.argv());
  ASSERT_TRUE(s);
  EXPECT_EQ(s->server.port, 0);
  EXPECT_EQ(s->server.jobs, 3);
  EXPECT_TRUE(s->quiet);

  Argv fz({"mphls", "fuzz", "--cross-check", "0.25", "--seed-base", "0x10",
           "--matrix", "quick", "--no-save"});
  const auto f = cli::parseTool<cli::FuzzArgs>(fz.argc(), fz.argv());
  ASSERT_TRUE(f);
  EXPECT_EQ(f->campaign.diff.engine.crossCheck, 0.25);
  EXPECT_EQ(f->campaign.seedBase, 16u);
  EXPECT_EQ(f->campaign.diff.points.size(), 2u);
  EXPECT_FALSE(f->save);

  // Options before the subcommand keep working.
  Argv lint({"mphls", "--opt", "none", "lint", "d.bdl"});
  const auto l = cli::parseDesign(lint.argc(), lint.argv());
  ASSERT_TRUE(l);
  EXPECT_EQ(l->cmd, cli::DesignCmd::Lint);
  EXPECT_EQ(l->file, "d.bdl");
  EXPECT_EQ(l->opts.opt, OptLevel::None);
  EXPECT_TRUE(l->optExplicit);

  Argv verify({"mphls", "d.bdl", "--verify", "a=1,b=0x20", "--verify", "a=2"});
  const auto v = cli::parseDesign(verify.argc(), verify.argv());
  ASSERT_TRUE(v);
  ASSERT_EQ(v->verifyRuns.size(), 2u);
  EXPECT_EQ(v->verifyRuns[0].at("b"), 32u);
}

TEST(CliArgs, UsageListsEveryTableFlag) {
  const std::string u = cli::usage();
  for (const options::Option& o : options::table()) {
    EXPECT_NE(u.find(std::string(o.flag)), std::string::npos) << o.flag;
    for (const options::Token& t : o.tokens)
      EXPECT_NE(u.find(std::string(t.text)), std::string::npos) << t.text;
  }
}
