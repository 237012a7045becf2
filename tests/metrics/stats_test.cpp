#include "metrics/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bgpsim::metrics {
namespace {

TEST(Summarize, EmptySampleIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Summarize, SingleValue) {
  const Summary s = summarize({7.5});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Summarize, KnownSample) {
  const Summary s = summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  // Sample stddev with n-1 = sqrt(32/7).
  EXPECT_NEAR(s.stddev, 2.13809, 1e-4);
}

TEST(Percentile, Endpoints) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 75), 7.5);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> v{9, 1, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
}

TEST(Percentile, OutOfRangeThrows) {
  EXPECT_THROW((void)percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 101), std::invalid_argument);
}

TEST(FitLine, PerfectLine) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit f = fit_line(x, y);
  EXPECT_NEAR(f.intercept, 1.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(FitLine, NoisyLineHasHighR2) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2.1, 3.9, 6.2, 7.8, 10.1};
  const LinearFit f = fit_line(x, y);
  EXPECT_NEAR(f.slope, 2.0, 0.1);
  EXPECT_GT(f.r2, 0.99);
}

TEST(FitLine, ConstantYIsExactFit) {
  const LinearFit f = fit_line({1, 2, 3}, {4, 4, 4});
  EXPECT_NEAR(f.slope, 0.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(FitLine, TooFewPointsIsZero) {
  const LinearFit f = fit_line({1}, {2});
  EXPECT_EQ(f.slope, 0.0);
  EXPECT_EQ(f.r2, 0.0);
}

TEST(FitLine, SizeMismatchThrows) {
  EXPECT_THROW((void)fit_line({1, 2}, {1}), std::invalid_argument);
}

TEST(MeanPm, Formats) {
  Summary s;
  s.mean = 12.34;
  s.stddev = 4.5;
  EXPECT_EQ(mean_pm(s, 1), "12.3 ±4.5");
  EXPECT_EQ(mean_pm(s, 2), "12.34 ±4.50");
}

}  // namespace
}  // namespace bgpsim::metrics
