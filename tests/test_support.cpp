// Unit tests for the support module: buffers, RNG determinism, options
// parsing, table formatting.

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "support/buffer.hpp"
#include "support/error.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace repmpi::support {
namespace {

TEST(Buffer, ScalarRoundTrip) {
  const double x = 3.14159;
  const auto bytes = as_bytes_of(x);
  const Buffer b(bytes.begin(), bytes.end());
  EXPECT_EQ(b.size(), sizeof(double));
  EXPECT_DOUBLE_EQ(from_buffer<double>(b), x);
}

TEST(Buffer, SpanRoundTrip) {
  const std::array<int, 4> src{1, 2, 3, 4};
  const auto bytes = std::as_bytes(std::span<const int>(src));
  const Buffer b(bytes.begin(), bytes.end());
  std::array<int, 4> dst{};
  EXPECT_EQ(copy_into<int>(b, dst), 4u);
  EXPECT_EQ(dst, src);
}

TEST(Buffer, TypedViewAliasesBytes) {
  const std::array<double, 3> src{1.5, -2.5, 0.0};
  const auto bytes = std::as_bytes(std::span<const double>(src));
  const Buffer b(bytes.begin(), bytes.end());
  auto view = typed_view<double>(std::span<const std::byte>(b));
  ASSERT_EQ(view.size(), 3u);
  EXPECT_DOUBLE_EQ(view[1], -2.5);
}

TEST(Buffer, CopyIntoTruncatesToSmallerDst) {
  const std::array<int, 4> src{1, 2, 3, 4};
  const auto bytes = std::as_bytes(std::span<const int>(src));
  const Buffer b(bytes.begin(), bytes.end());
  std::array<int, 2> dst{};
  EXPECT_EQ(copy_into<int>(b, dst), 2u);
  EXPECT_EQ(dst[0], 1);
  EXPECT_EQ(dst[1], 2);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng base(7);
  Rng s1 = base.fork(1);
  Rng s2 = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (s1.next_u64() == s2.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(123);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-3.0, 7.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.0);
  }
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--np=16", "--verbose", "--ratio=0.5", "pos"};
  Options o(5, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("np", 0), 16);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(o.get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(o.get("missing", "def"), "def");
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos");
}

TEST(Table, FormatsAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"x", Table::fmt(1.5, 1)});
  t.add_row({"longer", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(Check, ThrowsInvariantError) {
  EXPECT_THROW(REPMPI_CHECK_MSG(1 == 2, "impossible"), InvariantError);
  EXPECT_NO_THROW(REPMPI_CHECK(1 == 1));
}

}  // namespace
}  // namespace repmpi::support
