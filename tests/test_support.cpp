/// Unit tests for the support module (histogram, table, format, rng,
/// images).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "support/error.hpp"
#include "support/format.hpp"
#include "support/histogram.hpp"
#include "support/pgm.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace bstc {
namespace {

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    BSTC_REQUIRE(1 == 2, "custom message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message"), std::string::npos);
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  EXPECT_NE(a(), c());  // overwhelmingly likely
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::vector<int> seen(7, 0);
  for (int i = 0; i < 7000; ++i) ++seen[rng.uniform_index(7)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.9);   // bin 4
  h.add(-3.0);  // clamped to bin 0
  h.add(42.0);  // clamped to bin 4
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.density(0), 0.5);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25);
  const std::string out = h.render();
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
  EXPECT_THROW(Histogram(1.0, 1.0, 3), Error);
}

TEST(Table, RenderAligned) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvQuotesSpecialCells) {
  TextTable t({"a"});
  t.add_row({"with,comma"});
  EXPECT_NE(t.to_csv().find("\"with,comma\""), std::string::npos);
}

TEST(Format, Bytes) {
  EXPECT_EQ(fmt_bytes(1.5e9), "1.50 GB");
  EXPECT_EQ(fmt_bytes(10), "10.00 B");
}

TEST(Format, Flops) {
  EXPECT_EQ(fmt_flops(7.2e12), "7.20 Tflop/s");
  EXPECT_EQ(fmt_flop_count(877e12), "877.00 Tflop");
}

TEST(Format, Duration) {
  EXPECT_EQ(fmt_duration(34.9), "34.90 s");
  EXPECT_EQ(fmt_duration(0.012), "12.00 ms");
}

TEST(Format, GroupedIntegers) {
  EXPECT_EQ(fmt_group(2464900), "2,464,900");
  EXPECT_EQ(fmt_group(-1234), "-1,234");
  EXPECT_EQ(fmt_group(12), "12");
}

TEST(Format, Percent) { EXPECT_EQ(fmt_percent(0.098), "9.8%"); }

TEST(GrayImage, RectFillAndBounds) {
  GrayImage img(10, 5);
  img.fill_rect(2, 1, 4, 3, 0);
  EXPECT_EQ(img.at(2, 1), 0);
  EXPECT_EQ(img.at(3, 2), 0);
  EXPECT_EQ(img.at(4, 3), 255);
  img.fill_rect(8, 4, 100, 100, 7);  // clamped
  EXPECT_EQ(img.at(9, 4), 7);
}

TEST(GrayImage, WritePgmRoundTripHeader) {
  GrayImage img(4, 3, 128);
  const std::string path =
      (std::filesystem::temp_directory_path() / "bstc_test.pgm").string();
  img.write_pgm(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
  EXPECT_EQ(std::string(magic), "P5");
  std::fclose(f);
  std::filesystem::remove(path);
}

TEST(GrayImage, AsciiShowsDarkPixels) {
  GrayImage img(8, 2);
  img.set(0, 0, 0);
  const std::string art = img.ascii(8);
  EXPECT_EQ(art[0], '#');
}

}  // namespace
}  // namespace bstc
