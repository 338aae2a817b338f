// Tests for descriptive statistics and k-means clustering.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.hpp"
#include "stats/kmeans.hpp"
#include "util/error.hpp"

namespace pmacx {
namespace {

// ---------------------------------------------------------- descriptive ----

TEST(DescriptiveTest, SummaryBasics) {
  const std::vector<double> values = {4, 1, 3, 2};
  const auto s = stats::summarize(values);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.sum, 10);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(DescriptiveTest, OddMedian) {
  const std::vector<double> values = {9, 1, 5};
  EXPECT_DOUBLE_EQ(stats::summarize(values).median, 5);
}

TEST(DescriptiveTest, EmptySummaryZeroed) {
  const auto s = stats::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(DescriptiveTest, AbsoluteRelativeError) {
  EXPECT_DOUBLE_EQ(stats::absolute_relative_error(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(stats::absolute_relative_error(90, 100), 0.1);
  EXPECT_DOUBLE_EQ(stats::absolute_relative_error(0, 0), 0.0);
  EXPECT_TRUE(std::isinf(stats::absolute_relative_error(1, 0)));
}

TEST(DescriptiveTest, EuclideanDistance) {
  const std::vector<double> a = {0, 0};
  const std::vector<double> b = {3, 4};
  EXPECT_DOUBLE_EQ(stats::euclidean_distance(a, b), 5.0);
  EXPECT_THROW(stats::euclidean_distance(a, std::vector<double>{1}), util::Error);
}

// --------------------------------------------------------------- kmeans ----

std::vector<std::vector<double>> two_blobs() {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 10; ++i) points.push_back({0.0 + i * 0.01, 0.0});
  for (int i = 0; i < 10; ++i) points.push_back({10.0 + i * 0.01, 10.0});
  return points;
}

TEST(KMeansTest, SeparatesTwoBlobs) {
  const auto points = two_blobs();
  const auto result = stats::kmeans(points, 2);
  ASSERT_EQ(result.centroids.size(), 2u);
  // All points of one blob share a cluster, blobs differ.
  for (int i = 1; i < 10; ++i) EXPECT_EQ(result.assignment[i], result.assignment[0]);
  for (int i = 11; i < 20; ++i) EXPECT_EQ(result.assignment[i], result.assignment[10]);
  EXPECT_NE(result.assignment[0], result.assignment[10]);
  EXPECT_LT(result.inertia, 0.1);
}

TEST(KMeansTest, DeterministicForSeed) {
  const auto points = two_blobs();
  const auto a = stats::kmeans(points, 2);
  const auto b = stats::kmeans(points, 2);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, KEqualsOneCentroidIsMean) {
  const std::vector<std::vector<double>> points = {{0, 0}, {2, 2}, {4, 4}};
  const auto result = stats::kmeans(points, 1);
  ASSERT_EQ(result.centroids.size(), 1u);
  EXPECT_DOUBLE_EQ(result.centroids[0][0], 2.0);
  EXPECT_DOUBLE_EQ(result.centroids[0][1], 2.0);
}

TEST(KMeansTest, KEqualsNPerfect) {
  const std::vector<std::vector<double>> points = {{0, 0}, {5, 5}, {9, 1}};
  const auto result = stats::kmeans(points, 3);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, IdenticalPointsHandled) {
  const std::vector<std::vector<double>> points(5, std::vector<double>{1.0, 1.0});
  const auto result = stats::kmeans(points, 2);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, InvalidArgumentsThrow) {
  const auto points = two_blobs();
  EXPECT_THROW(stats::kmeans(points, 0), util::Error);
  EXPECT_THROW(stats::kmeans(points, points.size() + 1), util::Error);
  EXPECT_THROW(stats::kmeans({}, 1), util::Error);
}

TEST(KMeansTest, InconsistentDimensionsThrow) {
  const std::vector<std::vector<double>> points = {{1, 2}, {1}};
  EXPECT_THROW(stats::kmeans(points, 1), util::Error);
}

TEST(KMeansTest, ElbowFindsTwoBlobs) {
  const auto points = two_blobs();
  EXPECT_EQ(stats::pick_k_elbow(points, 5), 2u);
}

TEST(KMeansTest, ElbowOnUniformDataStaysSmall) {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 16; ++i)
    points.push_back({static_cast<double>(i % 4), static_cast<double>(i / 4)});
  EXPECT_LE(stats::pick_k_elbow(points, 8), 4u);
}

}  // namespace
}  // namespace pmacx
