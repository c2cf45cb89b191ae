#include "gen.h"

#include "fuzz/bdl_gen.h"

namespace perfbench {

namespace {

constexpr int kInputs = 8;
constexpr const char* kOps[] = {"+", "-", "*", "&", "|", "^"};

std::string named(char prefix, std::size_t i) {
  std::string s(1, prefix);
  s += std::to_string(i);
  return s;
}
std::string input(std::size_t i) { return named('x', i); }
std::string temp(int i) { return named('t', (std::size_t)i); }

}  // namespace

std::uint64_t subSeed(std::uint64_t seed, std::uint64_t tag) {
  mphls::fuzz::Rng rng(seed * 0x9E3779B97F4A7C15ull + tag);
  return rng.next();
}

LadderDesign ladderDesign(LadderShape shape, int statements,
                          std::uint64_t seed) {
  mphls::fuzz::Rng rng(seed);
  auto constant = [&] { return std::to_string(1 + rng.below(65535)); };

  LadderDesign d;
  d.name = (shape == LadderShape::Chain ? "chain" : "wide") +
           std::to_string(statements);
  std::string s = "proc " + d.name + "(";
  for (int i = 0; i < kInputs; ++i) s += "in " + input(i) + ": uint<16>, ";
  s += "out y: uint<16>) {\n";
  for (int i = 0; i < statements; ++i)
    s += "  var " + temp(i) + ": uint<16>;\n";

  // Operators cycle in a fixed order, so the dependence structure (and
  // what the optimizer can rebalance) is the same for every seed; the
  // seed picks operands and constants.
  std::size_t nextOp = 0;
  auto op = [&] { return std::string(kOps[nextOp++ % std::size(kOps)]); };
  if (shape == LadderShape::Chain) {
    for (int i = 0; i < statements; ++i) {
      const std::string prev = i == 0 ? input(0) : temp(i - 1);
      const std::string other =
          i % 2 == 0 ? input(rng.below(kInputs)) : constant();
      s += "  " + temp(i) + " = " + prev + " " + op() + " " + other + ";\n";
    }
  } else {
    // Leaves: pairs of inputs; then a pairwise reduction over everything
    // produced so far, oldest first, until the statement budget is spent.
    const int leaves = (statements + 1) / 2;
    std::vector<std::string> queue;
    for (int i = 0; i < leaves; ++i) {
      std::size_t a = rng.below(kInputs), b = rng.below(kInputs);
      if (a == b) b = (b + 1) % kInputs;
      s += "  " + temp(i) + " = (" + input(a) + " " + op() + " " + input(b) +
           ") ^ " + constant() + ";\n";
      queue.push_back(temp(i));
    }
    std::size_t head = 0;
    for (int i = leaves; i < statements; ++i) {
      const std::string a = queue[head++];
      const std::string b = queue[head++ % queue.size()];
      s += "  " + temp(i) + " = " + a + " " + op() + " " + b + ";\n";
      queue.push_back(temp(i));
    }
  }
  s += "  y = " + temp(statements - 1) + ";\n}\n";
  d.source = std::move(s);
  return d;
}

FreshProgram freshProgram(std::uint64_t seed) {
  const mphls::fuzz::GenProgram prog = mphls::fuzz::generateProgram(seed);
  FreshProgram f;
  f.source = prog.render();
  f.inputs = mphls::fuzz::randomInputs(prog.inputNames(), seed, 2);
  // Keep each value within its port's width, so that it survives a JSON
  // number (a double) exactly.
  for (const auto& in : prog.ins)
    if (in.width < 64) f.inputs[in.name] &= (1ull << in.width) - 1;
  return f;
}

}  // namespace perfbench
