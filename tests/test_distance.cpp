#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "distance/distance.hpp"

namespace algas {
namespace {

TEST(Distance, L2Known) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{4.0f, 6.0f, 3.0f};
  EXPECT_FLOAT_EQ(l2_sq(a, b), 9.0f + 16.0f);
  EXPECT_FLOAT_EQ(l2_sq(a, a), 0.0f);
}

TEST(Distance, DotKnown) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{-1.0f, 0.5f, 2.0f};
  EXPECT_FLOAT_EQ(dot(a, b), -1.0f + 1.0f + 6.0f);
}

TEST(Distance, CosineBounds) {
  const std::vector<float> a{1.0f, 0.0f};
  const std::vector<float> b{0.0f, 1.0f};
  const std::vector<float> c{-1.0f, 0.0f};
  EXPECT_NEAR(cosine_similarity(a, a), 1.0f, 1e-6);
  EXPECT_NEAR(cosine_similarity(a, b), 0.0f, 1e-6);
  EXPECT_NEAR(cosine_similarity(a, c), -1.0f, 1e-6);
}

TEST(Distance, SmallerIsCloserForAllMetrics) {
  // near is more similar to q than far, under every metric mapping.
  const std::vector<float> q{1.0f, 1.0f, 0.0f, 0.0f};
  const std::vector<float> near_v{1.0f, 0.9f, 0.1f, 0.0f};
  const std::vector<float> far_v{-1.0f, -0.8f, 0.5f, 0.3f};
  for (Metric m : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    EXPECT_LT(distance(m, q, near_v), distance(m, q, far_v))
        << metric_name(m);
  }
}

TEST(Distance, NormalizeMakesUnit) {
  std::vector<float> v{3.0f, 4.0f};
  normalize(v);
  EXPECT_NEAR(norm(v), 1.0f, 1e-6);
  EXPECT_NEAR(v[0], 0.6f, 1e-6);
  std::vector<float> zero{0.0f, 0.0f};
  normalize(zero);  // must not produce NaN
  EXPECT_EQ(zero[0], 0.0f);
}

TEST(Distance, MetricNames) {
  EXPECT_EQ(metric_name(Metric::kL2), "L2");
  EXPECT_EQ(metric_name(Metric::kInnerProduct), "InnerProduct");
  EXPECT_EQ(metric_name(Metric::kCosine), "Cosine");
}

// Property sweep: the lane-partitioned kernel must agree with the scalar
// kernel for every metric, dimension shape (smaller, equal, larger, and
// non-multiples of the lane count), and lane width.
class LaneEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Metric, std::size_t, std::size_t>> {};

TEST_P(LaneEquivalence, MatchesScalarKernel) {
  const auto [metric, dim, lanes] = GetParam();
  Rng rng(dim * 131 + lanes);
  std::vector<float> a(dim), b(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    a[i] = rng.next_gaussian();
    b[i] = rng.next_gaussian();
  }
  const float scalar = distance(metric, a, b);
  const float laned = distance_lanes(metric, a, b, lanes);
  const float scale = std::max(1.0f, std::fabs(scalar));
  EXPECT_NEAR(laned, scalar, 2e-4f * scale)
      << metric_name(metric) << " dim=" << dim << " lanes=" << lanes;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LaneEquivalence,
    ::testing::Combine(
        ::testing::Values(Metric::kL2, Metric::kInnerProduct, Metric::kCosine),
        ::testing::Values<std::size_t>(1, 7, 32, 100, 128, 960),
        ::testing::Values<std::size_t>(1, 2, 8, 32)));

TEST(Distance, LanesHandleDimSmallerThanLanes) {
  const std::vector<float> a{1.0f, 2.0f};
  const std::vector<float> b{3.0f, 5.0f};
  EXPECT_NEAR(distance_lanes(Metric::kL2, a, b, 32), l2_sq(a, b), 1e-5f);
}

}  // namespace
}  // namespace algas
