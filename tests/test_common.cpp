// Unit tests for src/common: ids, bit utilities, intervals, diagnostics.
#include <gtest/gtest.h>

#include "common/bitutil.h"
#include "common/diag.h"
#include "common/ids.h"
#include "common/interval.h"

namespace mphls {
namespace {

TEST(Ids, DefaultIsInvalid) {
  OpId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, OpId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  ValueId id(7u);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.get(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(Ids, Ordering) {
  BlockId a(1u), b(2u);
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_LE(a, a);
}

TEST(Ids, DistinctFamiliesAreDistinctTypes) {
  static_assert(!std::is_same_v<OpId, ValueId>);
  static_assert(!std::is_same_v<RegId, FuId>);
}

TEST(Ids, Hashable) {
  std::hash<OpId> h;
  EXPECT_EQ(h(OpId(3u)), h(OpId(3u)));
}

TEST(BitUtil, BitsForStates) {
  EXPECT_EQ(bitsForStates(0), 1);
  EXPECT_EQ(bitsForStates(1), 1);
  EXPECT_EQ(bitsForStates(2), 1);
  EXPECT_EQ(bitsForStates(3), 2);
  EXPECT_EQ(bitsForStates(4), 2);
  EXPECT_EQ(bitsForStates(5), 3);
  EXPECT_EQ(bitsForStates(256), 8);
  EXPECT_EQ(bitsForStates(257), 9);
}

TEST(BitUtil, PowerOfTwo) {
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
  EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(BitUtil, Log2Floor) {
  EXPECT_EQ(log2Floor(1), 0);
  EXPECT_EQ(log2Floor(2), 1);
  EXPECT_EQ(log2Floor(3), 1);
  EXPECT_EQ(log2Floor(1024), 10);
}

TEST(BitUtil, MaskAndTrunc) {
  EXPECT_EQ(maskBits(1), 1u);
  EXPECT_EQ(maskBits(8), 0xFFu);
  EXPECT_EQ(maskBits(64), ~0ULL);
  EXPECT_EQ(truncBits(0x1FF, 8), 0xFFu);
  EXPECT_EQ(truncBits(0x100, 8), 0u);
}

TEST(BitUtil, SignExtend) {
  EXPECT_EQ(signExtend(0xF, 4), -1);
  EXPECT_EQ(signExtend(0x7, 4), 7);
  EXPECT_EQ(signExtend(0x80, 8), -128);
  EXPECT_EQ(signExtend(0xFFFFFFFFFFFFFFFFull, 64), -1);
}

TEST(BitUtil, ToBinary) {
  EXPECT_EQ(toBinary(5, 4), "0101");
  EXPECT_EQ(toBinary(0, 3), "000");
  EXPECT_EQ(toBinary(7, 3), "111");
}

TEST(Interval, OverlapRules) {
  LiveInterval a{0, 3}, b{3, 5}, c{2, 4};
  EXPECT_FALSE(a.overlaps(b));  // half-open: touching intervals don't overlap
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(c.overlaps(b));
  EXPECT_TRUE(a.contains(0));
  EXPECT_FALSE(a.contains(3));
}

TEST(Interval, EmptyAndLength) {
  LiveInterval e{4, 4};
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.length(), 0);
  EXPECT_EQ((LiveInterval{1, 5}).length(), 4);
}

TEST(Diag, ErrorsGateOk) {
  DiagEngine d;
  EXPECT_TRUE(d.ok());
  d.warning({1, 1}, "just a warning");
  EXPECT_TRUE(d.ok());
  d.error({2, 3}, "boom");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.errorCount(), 1u);
  EXPECT_NE(d.summary().find("2:3"), std::string::npos);
}

TEST(Diag, CheckMacroThrows) {
  EXPECT_THROW(MPHLS_CHECK(false, "intentional"), InternalError);
}

}  // namespace
}  // namespace mphls
