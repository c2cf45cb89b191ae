#include "oracles/synthetic_dfg.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mphls {

Function syntheticDfg(int numOps) {
  Function fn("bench_dfg");
  BlockId b = fn.addBlock("entry");
  std::vector<ValueId> pool;
  for (int i = 0; i < 4; ++i) {
    // Sequential append: GCC 12 -Wrestrict -O3 false positive on the
    // temporary chain (same story as obs/vcd.cpp).
    std::string pname = "p";
    pname += std::to_string(i);
    pool.push_back(fn.emitRead(b, fn.addInput(pname, 16)));
  }
  std::uint64_t state = 0x9E3779B97F4A7C15ull;  // xorshift, fixed seed
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < numOps; ++i) {
    ValueId a = pool[next() % pool.size()];
    ValueId c = pool[next() % pool.size()];
    OpKind k = (next() % 4 == 0) ? OpKind::Mul
               : (next() % 2 == 0) ? OpKind::Add
                                   : OpKind::Sub;
    pool.push_back(fn.emitBinary(b, k, a, c));
  }
  PortId out = fn.addOutput("y", 16);
  fn.emitWrite(b, out, pool.back());
  fn.setReturn(b);
  return fn;
}

}  // namespace mphls
