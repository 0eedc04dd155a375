// Unit tests for util: thread pool, aligned buffers, matrix views, tables.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace parfw {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroThreadsExecutesInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  bool ran = false;
  pool.submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(AlignedBuffer, SixtyFourByteAlignment) {
  for (std::size_t n : {1, 7, 64, 1000}) {
    AlignedBuffer<float> buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    EXPECT_EQ(buf.size(), n);
  }
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[3] = 42;
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b[3], 42);
  EXPECT_TRUE(a.empty());
}

TEST(Matrix, SubViewAddressesParentStorage) {
  Matrix<int> m(6, 8, 0);
  auto sub = m.sub(2, 3, 2, 2);
  sub(0, 0) = 7;
  sub(1, 1) = 9;
  EXPECT_EQ(m(2, 3), 7);
  EXPECT_EQ(m(3, 4), 9);
  EXPECT_EQ(sub.ld(), 8u);
}

TEST(Matrix, CopyFromRespectsLeadingDimension) {
  Matrix<int> src(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) src(i, j) = static_cast<int>(10 * i + j);
  Matrix<int> dst(8, 8, -1);
  dst.sub(2, 2, 4, 4).copy_from(src.view());
  EXPECT_EQ(dst(2, 2), 0);
  EXPECT_EQ(dst(5, 5), 33);
  EXPECT_EQ(dst(0, 0), -1);  // outside the target region untouched
}

TEST(Matrix, CloneIsDeep) {
  Matrix<float> a(3, 3, 1.0f);
  Matrix<float> b = a.clone();
  b(1, 1) = 99.0f;
  EXPECT_EQ(a(1, 1), 1.0f);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix<double> a(2, 2, 1.0);
  Matrix<double> b = a.clone();
  b(1, 0) = 4.5;
  EXPECT_DOUBLE_EQ(max_abs_diff<double>(a.view(), b.view()), 3.5);
}

TEST(Matrix, PaddedLdIsAnOddNumberOfLines) {
  auto check = [](auto elem, std::size_t cols) {
    using T = decltype(elem);
    const std::size_t ld = padded_ld<T>(cols);
    const std::size_t bytes = ld * sizeof(T);
    EXPECT_GE(ld, cols);
    EXPECT_EQ(bytes % 64, 0u) << cols;
    EXPECT_EQ(bytes / 64 % 2, 1u) << cols;
    EXPECT_EQ(padded_ld<T>(ld), ld) << cols;  // idempotent
    // Under two lines of padding: the next odd line count would not be.
    EXPECT_LT(ld, cols + 2 * (64 / sizeof(T))) << cols;
  };
  for (std::size_t cols : {0u, 1u, 15u, 16u, 17u, 33u, 130u, 256u, 1024u,
                           4096u, 4112u, 4160u}) {
    check(float{}, cols);
    check(double{}, cols);
    check(std::uint8_t{}, cols);
  }
  EXPECT_EQ(padded_ld<float>(4096), 4112u);  // 256 lines -> 257
  EXPECT_EQ(padded_ld<float>(4160), 4176u);  // 260 lines -> 261
  EXPECT_EQ(padded_ld<double>(512), 520u);   // 64 lines -> 65
  EXPECT_EQ(padded_ld<float>(100), 112u);    // 7 lines, already odd
}

TEST(Check, ThrowsCheckError) {
  EXPECT_THROW(PARFW_CHECK(1 == 2), check_error);
  EXPECT_NO_THROW(PARFW_CHECK(1 == 1));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng a = Rng::split(1, 0);
  Rng b = Rng::split(1, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer_name", "2.5"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.str();
  EXPECT_NE(s.find("longer_name"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), check_error);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace parfw
