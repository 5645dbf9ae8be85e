// Unit and property tests for the Byzantine-robust aggregation subsystem:
// the robust statistics kernels (coordinate median, trimmed mean, norm
// clipping, Krum, the Weiszfeld geometric median) with bitwise
// thread-count-invariance checks, the robust_combine policy layer, client
// anomaly scoring and exclusion, the adaptive weight-norm tracker, the
// variance-weight cap regression, and the attack injector's mechanics
// including its checkpoint round-trip.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "fedpkd/comm/payload.hpp"
#include "fedpkd/comm/validate.hpp"
#include "fedpkd/core/aggregation.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/robust/aggregate.hpp"
#include "fedpkd/robust/anomaly.hpp"
#include "fedpkd/robust/attack.hpp"
#include "fedpkd/robust/stats.hpp"
#include "fedpkd/tensor/rng.hpp"

namespace fedpkd {
namespace {

using tensor::Rng;
using tensor::Tensor;

std::uint32_t float_bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

Tensor vec(std::initializer_list<float> values) {
  Tensor t({values.size()});
  std::size_t i = 0;
  for (float v : values) t[i++] = v;
  return t;
}

Tensor random_vec(std::size_t dim, Rng& rng, double scale = 1.0) {
  Tensor t({dim});
  for (std::size_t i = 0; i < dim; ++i) {
    t[i] = static_cast<float>(rng.normal() * scale);
  }
  return t;
}

/// The geometric-median objective sum_i w_i * ||x_i - y||.
double weiszfeld_objective(std::span<const Tensor> points,
                           std::span<const double> weights, const Tensor& y) {
  double total = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < y.numel(); ++j) {
      const double d =
          static_cast<double>(points[i][j]) - static_cast<double>(y[j]);
      d2 += d * d;
    }
    total += (weights.empty() ? 1.0 : weights[i]) * std::sqrt(d2);
  }
  return total;
}

// ------------------------------------------------------ statistics kernels --

TEST(RobustStats, CoordinateMedianOddAndEvenCounts) {
  const std::vector<Tensor> odd = {vec({1.0f, 10.0f}), vec({2.0f, 20.0f}),
                                   vec({100.0f, -5.0f})};
  const Tensor m_odd = robust::coordinate_median(odd);
  EXPECT_FLOAT_EQ(m_odd[0], 2.0f);
  EXPECT_FLOAT_EQ(m_odd[1], 10.0f);

  const std::vector<Tensor> even = {vec({1.0f}), vec({3.0f}), vec({5.0f}),
                                    vec({1000.0f})};
  const Tensor m_even = robust::coordinate_median(even);
  EXPECT_FLOAT_EQ(m_even[0], 4.0f);  // mean of the two middles, 3 and 5
}

TEST(RobustStats, CoordinateMedianTolaratesMinorityOutliers) {
  // 3 honest inputs at ~1.0, 2 adversarial at 1e8: the median never moves.
  const std::vector<Tensor> inputs = {vec({1.0f}), vec({1.1f}), vec({0.9f}),
                                      vec({1e8f}), vec({-1e8f})};
  EXPECT_FLOAT_EQ(robust::coordinate_median(inputs)[0], 1.0f);
}

TEST(RobustStats, TrimmedMeanDropsExtremesAndClampsTrim) {
  const std::vector<Tensor> inputs = {vec({1.0f}), vec({2.0f}), vec({3.0f}),
                                      vec({4.0f}), vec({1000.0f})};
  // trim=1 drops 1 and 1000, averaging {2,3,4}.
  EXPECT_FLOAT_EQ(robust::trimmed_mean(inputs, 1)[0], 3.0f);
  // trim=100 is clamped to floor((5-1)/2)=2, leaving only the median.
  EXPECT_FLOAT_EQ(robust::trimmed_mean(inputs, 100)[0], 3.0f);
}

TEST(RobustStats, NormClipScalesOnlyOversizedTensors) {
  Tensor big = vec({3.0f, 4.0f});  // norm 5
  EXPECT_TRUE(robust::clip_to_norm(big, 1.0));
  EXPECT_NEAR(robust::l2_norm(big), 1.0, 1e-6);
  EXPECT_NEAR(big[0] / big[1], 0.75, 1e-6);  // direction preserved

  Tensor small = vec({0.3f, 0.4f});
  EXPECT_FALSE(robust::clip_to_norm(small, 1.0));
  EXPECT_FLOAT_EQ(small[0], 0.3f);

  Tensor any = vec({30.0f, 40.0f});
  EXPECT_FALSE(robust::clip_to_norm(any, 0.0));  // bound <= 0 is a no-op
  EXPECT_FLOAT_EQ(any[1], 40.0f);
}

TEST(RobustStats, KrumSelectsFromTheHonestCluster) {
  // 5 honest inputs clustered at the origin, 2 adversaries far away. With
  // f=2, Krum must pick an honest input, and multi-Krum's top-5 must be
  // exactly the honest indices.
  Rng rng(71);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < 5; ++i) inputs.push_back(random_vec(16, rng));
  inputs.push_back(random_vec(16, rng, 1e4));
  inputs.push_back(random_vec(16, rng, 1e4));

  const robust::KrumResult one = robust::krum_select(inputs, 2, 1);
  ASSERT_EQ(one.selected.size(), 1u);
  EXPECT_LT(one.selected[0], 5u);

  const robust::KrumResult five = robust::krum_select(inputs, 2, 5);
  ASSERT_EQ(five.selected.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(five.selected[i], i);
  // Adversaries carry strictly worse (larger) scores than every honest input.
  for (std::size_t a : {5u, 6u}) {
    for (std::size_t h = 0; h < 5; ++h) {
      EXPECT_GT(one.scores[a], one.scores[h]);
    }
  }
}

TEST(RobustStats, KrumThrowsOnShapeMismatchAndEmptyInput) {
  EXPECT_THROW(robust::krum_select({}, 1, 1), std::invalid_argument);
  const std::vector<Tensor> mixed = {vec({1.0f}), vec({1.0f, 2.0f})};
  EXPECT_THROW(robust::krum_select(mixed, 0, 1), std::invalid_argument);
  EXPECT_THROW(robust::coordinate_median(mixed), std::invalid_argument);
  EXPECT_THROW(robust::trimmed_mean(mixed, 1), std::invalid_argument);
}

// ------------------------------------------------- Weiszfeld property tests --

/// Brute force: the Weiszfeld output must (nearly) minimize the objective
/// over a fine grid spanning the input bounding box.
void expect_near_brute_force(const std::vector<Tensor>& points,
                             std::span<const double> weights) {
  const Tensor gm = robust::geometric_median(points, weights);
  const double got = weiszfeld_objective(points, weights, gm);

  const std::size_t dim = points.front().numel();
  ASSERT_LE(dim, 2u) << "brute force only covers 1-D/2-D";
  Tensor lo = points.front();
  Tensor hi = points.front();
  for (const Tensor& p : points) {
    for (std::size_t j = 0; j < dim; ++j) {
      lo[j] = std::min(lo[j], p[j]);
      hi[j] = std::max(hi[j], p[j]);
    }
  }
  constexpr std::size_t kSteps = 200;
  double best = std::numeric_limits<double>::infinity();
  Tensor candidate({dim});
  if (dim == 1) {
    for (std::size_t a = 0; a <= kSteps; ++a) {
      candidate[0] = lo[0] + (hi[0] - lo[0]) *
                                 static_cast<float>(a) /
                                 static_cast<float>(kSteps);
      best = std::min(best, weiszfeld_objective(points, weights, candidate));
    }
  } else {
    for (std::size_t a = 0; a <= kSteps; ++a) {
      for (std::size_t b = 0; b <= kSteps; ++b) {
        candidate[0] = lo[0] + (hi[0] - lo[0]) *
                                   static_cast<float>(a) /
                                   static_cast<float>(kSteps);
        candidate[1] = lo[1] + (hi[1] - lo[1]) *
                                   static_cast<float>(b) /
                                   static_cast<float>(kSteps);
        best = std::min(best, weiszfeld_objective(points, weights, candidate));
      }
    }
  }
  // The grid's own resolution bounds how much better it can look.
  double span = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    span = std::max(span, static_cast<double>(hi[j] - lo[j]));
  }
  const double grid_slack =
      span / kSteps * static_cast<double>(points.size()) * 2.0;
  EXPECT_LE(got, best + grid_slack);
}

TEST(Weiszfeld, MatchesBruteForceOnRandom2DClouds) {
  Rng rng(1234);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Tensor> points;
    const std::size_t n = 3 + rng.uniform_index(6);
    for (std::size_t i = 0; i < n; ++i) points.push_back(random_vec(2, rng));
    expect_near_brute_force(points, {});
  }
}

TEST(Weiszfeld, MatchesBruteForceWithWeights) {
  Rng rng(99);
  std::vector<Tensor> points;
  std::vector<double> weights;
  for (std::size_t i = 0; i < 6; ++i) {
    points.push_back(random_vec(2, rng));
    weights.push_back(1.0 + static_cast<double>(rng.uniform_index(5)));
  }
  expect_near_brute_force(points, weights);
}

TEST(Weiszfeld, CollinearPointsConvergeToTheWeightedMedian) {
  // On a line, the geometric median is the (weighted) 1-D median. With odd
  // uniform weights that is the middle point exactly.
  const std::vector<Tensor> points = {vec({0.0f, 0.0f}), vec({1.0f, 2.0f}),
                                      vec({2.0f, 4.0f}), vec({3.0f, 6.0f}),
                                      vec({10.0f, 20.0f})};
  const Tensor gm = robust::geometric_median(points);
  EXPECT_NEAR(gm[0], 2.0f, 1e-4);
  EXPECT_NEAR(gm[1], 4.0f, 1e-4);
  expect_near_brute_force(points, {});
}

TEST(Weiszfeld, MajorityDuplicateIsTheExactMinimizer) {
  // 3 of 5 points coincide: the duplicated point is the unique minimizer and
  // the iteration must land on it despite the distance singularity there.
  const std::vector<Tensor> points = {vec({1.0f, -1.0f}), vec({1.0f, -1.0f}),
                                      vec({1.0f, -1.0f}), vec({50.0f, 3.0f}),
                                      vec({-20.0f, 7.0f})};
  const Tensor gm = robust::geometric_median(points);
  EXPECT_NEAR(gm[0], 1.0f, 1e-3);
  EXPECT_NEAR(gm[1], -1.0f, 1e-3);
}

TEST(Weiszfeld, OutlierMovesTheMedianOnlyBoundedly) {
  // Breakdown property: pushing one of 5 points to 1e6 moves the geometric
  // median by a bounded amount, while the mean follows the outlier.
  Rng rng(5);
  std::vector<Tensor> points;
  for (std::size_t i = 0; i < 4; ++i) points.push_back(random_vec(8, rng));
  points.push_back(random_vec(8, rng));
  const Tensor clean = robust::geometric_median(points);
  for (std::size_t j = 0; j < 8; ++j) points.back()[j] = 1e6f;
  const Tensor dirty = robust::geometric_median(points);
  double shift = 0.0;
  for (std::size_t j = 0; j < 8; ++j) {
    shift += std::fabs(static_cast<double>(dirty[j] - clean[j]));
  }
  EXPECT_LT(shift, 100.0);
}

TEST(Weiszfeld, RejectsBadWeights) {
  const std::vector<Tensor> points = {vec({1.0f}), vec({2.0f})};
  const std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(robust::geometric_median(points, negative),
               std::invalid_argument);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(robust::geometric_median(points, zeros), std::invalid_argument);
  const std::vector<double> short_weights = {1.0};
  EXPECT_THROW(robust::geometric_median(points, short_weights),
               std::invalid_argument);
}

// ----------------------------------------------- thread-count invariance ----

TEST(RobustStats, KernelsAreBitwiseThreadCountInvariant) {
  // 4097 coordinates: a deliberately non-round size so parallel chunk
  // boundaries fall mid-stride everywhere.
  Rng rng(2024);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < 9; ++i) inputs.push_back(random_vec(4097, rng));

  const auto run_all = [&](std::size_t threads) {
    exec::set_num_threads(threads);
    std::vector<Tensor> results;
    results.push_back(robust::coordinate_median(inputs));
    results.push_back(robust::trimmed_mean(inputs, 2));
    results.push_back(robust::geometric_median(inputs));
    const robust::KrumResult krum = robust::krum_select(inputs, 2, 3);
    Tensor krum_scores({krum.scores.size()});
    for (std::size_t i = 0; i < krum.scores.size(); ++i) {
      krum_scores[i] = static_cast<float>(krum.scores[i]);
    }
    results.push_back(std::move(krum_scores));
    exec::set_num_threads(1);
    return results;
  };

  const std::vector<Tensor> serial = run_all(1);
  for (std::size_t threads : {2u, 4u, 7u}) {
    const std::vector<Tensor> parallel = run_all(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
      ASSERT_EQ(serial[r].numel(), parallel[r].numel());
      for (std::size_t j = 0; j < serial[r].numel(); ++j) {
        ASSERT_EQ(float_bits(serial[r][j]), float_bits(parallel[r][j]))
            << "kernel " << r << " coord " << j << " at " << threads
            << " threads";
      }
    }
  }
}

// ----------------------------------------------------------- policy layer ---

TEST(RobustCombine, NoneIsTheWeightedMeanAndHonorsWeights) {
  robust::RobustPolicy policy;  // kNone
  const std::vector<Tensor> inputs = {vec({1.0f}), vec({5.0f})};
  const std::vector<float> weights = {3.0f, 1.0f};
  const robust::CombineResult r =
      robust::robust_combine(policy, inputs, weights);
  EXPECT_FLOAT_EQ(r.value[0], 2.0f);  // (3*1 + 1*5) / 4
  EXPECT_TRUE(r.selected.empty());
  EXPECT_EQ(r.clipped, 0u);
}

TEST(RobustCombine, OrderStatisticsIgnoreClaimedWeights) {
  // A Byzantine client claiming a huge dataset must not buy median influence.
  robust::RobustPolicy policy;
  policy.rule = robust::RobustAggregation::kMedian;
  const std::vector<Tensor> inputs = {vec({1.0f}), vec({2.0f}), vec({1e9f})};
  const std::vector<float> weights = {1.0f, 1.0f, 1e6f};
  EXPECT_FLOAT_EQ(robust::robust_combine(policy, inputs, weights).value[0],
                  2.0f);
}

TEST(RobustCombine, KrumCopiesTheWinnerAndMultiKrumAveragesUniformly) {
  robust::RobustPolicy policy;
  policy.rule = robust::RobustAggregation::kKrum;
  policy.assumed_adversaries = 1;
  const std::vector<Tensor> inputs = {vec({1.0f}), vec({1.2f}), vec({0.8f}),
                                      vec({1.1f}), vec({500.0f})};
  const robust::CombineResult krum = robust::robust_combine(policy, inputs);
  ASSERT_EQ(krum.selected.size(), 1u);
  EXPECT_LT(krum.selected[0], 4u);
  EXPECT_EQ(float_bits(krum.value[0]),
            float_bits(inputs[krum.selected[0]][0]));

  policy.rule = robust::RobustAggregation::kMultiKrum;
  policy.multi_krum_m = 4;
  const robust::CombineResult multi = robust::robust_combine(policy, inputs);
  ASSERT_EQ(multi.selected.size(), 4u);
  for (std::size_t i : multi.selected) EXPECT_LT(i, 4u);
  EXPECT_NEAR(multi.value[0], (1.0f + 1.2f + 0.8f + 1.1f) / 4.0f, 1e-6);
}

TEST(RobustCombine, NormClipDerivesMedianBoundAndCountsClips) {
  robust::RobustPolicy policy;
  policy.rule = robust::RobustAggregation::kNormClip;
  // Norms 1, 2, 3, 40: the derived bound is the median of norms 2.5, so the
  // two largest get clipped.
  const std::vector<Tensor> inputs = {vec({1.0f, 0.0f}), vec({0.0f, 2.0f}),
                                      vec({3.0f, 0.0f}), vec({0.0f, 40.0f})};
  const robust::CombineResult r = robust::robust_combine(policy, inputs);
  EXPECT_EQ(r.clipped, 2u);
  // The clipped mean is bounded: no coordinate can exceed the bound.
  EXPECT_LE(std::fabs(r.value[0]), 2.5f);
  EXPECT_LE(std::fabs(r.value[1]), 2.5f);

  policy.clip_norm = 100.0;  // explicit generous bound: nothing clips
  EXPECT_EQ(robust::robust_combine(policy, inputs).clipped, 0u);
}

TEST(RobustCombine, RenormalizeRowsRestoresTheSimplex) {
  Tensor probs({2, 3});
  probs[0] = 0.2f; probs[1] = 0.2f; probs[2] = 0.1f;  // sums to 0.5
  probs[3] = 0.0f; probs[4] = 0.0f; probs[5] = 0.0f;  // vanishing row
  robust::renormalize_rows(probs);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(probs[0], 0.4f);
  EXPECT_NEAR(probs[3], 1.0f / 3.0f, 1e-6);  // uniform fallback
}

TEST(RobustCombine, ParseAndToStringRoundTrip) {
  using robust::RobustAggregation;
  for (RobustAggregation rule :
       {RobustAggregation::kNone, RobustAggregation::kMedian,
        RobustAggregation::kTrimmedMean, RobustAggregation::kNormClip,
        RobustAggregation::kKrum, RobustAggregation::kMultiKrum,
        RobustAggregation::kGeometricMedian}) {
    EXPECT_EQ(robust::parse_robust_aggregation(robust::to_string(rule)), rule);
  }
  EXPECT_THROW(robust::parse_robust_aggregation("avg"), std::invalid_argument);

  using robust::AttackType;
  for (AttackType type :
       {AttackType::kSignFlip, AttackType::kScaledBoost, AttackType::kLabelFlip,
        AttackType::kFreeRider, AttackType::kPrototypeShift}) {
    EXPECT_EQ(robust::parse_attack_type(robust::to_string(type)), type);
  }
  EXPECT_THROW(robust::parse_attack_type("ddos"), std::invalid_argument);
}

// ------------------------------------------------ prototype aggregation -----

comm::PrototypesPayload protos(
    std::initializer_list<std::pair<std::int32_t, Tensor>> entries,
    std::uint32_t support = 10) {
  comm::PrototypesPayload payload;
  for (const auto& [class_id, centroid] : entries) {
    payload.entries.push_back(comm::PrototypeEntry{class_id, support, centroid});
  }
  return payload;
}

TEST(RobustPrototypes, MedianRuleIgnoresAShiftedCentroid) {
  const std::vector<comm::PrototypesPayload> uploads = {
      protos({{0, vec({1.0f, 0.0f})}, {1, vec({0.0f, 1.0f})}}),
      protos({{0, vec({1.1f, 0.0f})}}),
      protos({{0, vec({0.9f, 0.0f})}, {1, vec({0.0f, 1.2f})}}),
      protos({{0, vec({1e6f, 1e6f})}}),  // prototype-shift adversary
  };
  robust::RobustPolicy policy;
  policy.rule = robust::RobustAggregation::kMedian;
  const robust::PrototypeAggregateResult r =
      robust::robust_aggregate_prototypes(policy, uploads);
  ASSERT_EQ(r.payload.entries.size(), 2u);
  // Classes come out ascending; supports sum over holders.
  EXPECT_EQ(r.payload.entries[0].class_id, 0);
  EXPECT_EQ(r.payload.entries[0].support, 40u);
  EXPECT_EQ(r.payload.entries[1].class_id, 1);
  EXPECT_EQ(r.payload.entries[1].support, 20u);
  // The class-0 median sits in the honest cluster despite the 1e6 outlier.
  EXPECT_NEAR(r.payload.entries[0].centroid[0], 1.0f, 0.2f);
  EXPECT_NEAR(r.payload.entries[0].centroid[1], 0.0f, 0.2f);
}

TEST(RobustPrototypes, NoneRuleIsTheSupportWeightedMean) {
  comm::PrototypesPayload heavy = protos({{0, vec({2.0f})}}, 30);
  comm::PrototypesPayload light = protos({{0, vec({6.0f})}}, 10);
  robust::RobustPolicy policy;  // kNone
  const robust::PrototypeAggregateResult r =
      robust::robust_aggregate_prototypes(policy, {{heavy, light}});
  ASSERT_EQ(r.payload.entries.size(), 1u);
  EXPECT_NEAR(r.payload.entries[0].centroid[0], 3.0f, 1e-5);  // (30*2+10*6)/40
  EXPECT_EQ(r.payload.entries[0].support, 40u);
}

// -------------------------------------------------------- anomaly scoring ---

std::vector<comm::Payload> weights_bundle(const Tensor& flat) {
  return {comm::WeightsPayload{flat}};
}

TEST(Anomaly, BoostedClientScoresFarAboveTheHonestCohort) {
  Rng rng(17);
  std::vector<std::vector<comm::Payload>> clients;
  for (std::size_t i = 0; i < 4; ++i) {
    clients.push_back(weights_bundle(random_vec(64, rng)));
  }
  clients.push_back(weights_bundle(random_vec(64, rng, 50.0)));

  const std::vector<float> scores = robust::anomaly_scores(clients);
  ASSERT_EQ(scores.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_LT(scores[i], scores[4]);

  const robust::ExclusionDecision decision =
      robust::decide_exclusions(scores, {});
  EXPECT_EQ(decision.excluded[4], 1u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(decision.excluded[i], 0u);
}

TEST(Anomaly, MalformedBundlesGetTheSentinelScore) {
  Rng rng(18);
  std::vector<std::vector<comm::Payload>> clients;
  for (std::size_t i = 0; i < 3; ++i) {
    clients.push_back(weights_bundle(random_vec(8, rng)));
  }
  clients.push_back({});                                    // empty
  clients.push_back(weights_bundle(random_vec(9, rng)));    // wrong shape
  const std::vector<float> scores = robust::anomaly_scores(clients);
  EXPECT_EQ(scores[3], robust::kMalformedScore);
  EXPECT_EQ(scores[4], robust::kMalformedScore);
  EXPECT_TRUE(std::isfinite(scores[3]));  // CSV-safe by design
}

TEST(Anomaly, TinyCohortsExcludeNobody) {
  const std::vector<float> scores = {0.1f, 1e20f};
  const robust::ExclusionDecision decision =
      robust::decide_exclusions(scores, {});
  EXPECT_EQ(decision.excluded[0], 0u);
  EXPECT_EQ(decision.excluded[1], 0u);
  EXPECT_TRUE(std::isinf(decision.threshold));
}

TEST(Anomaly, ExclusionCapKeepsTheWorstOffenders) {
  // Majority-honest cohort: median 1.0, MAD 0, so the threshold sits just
  // above 1.0 and all three outliers exceed it — but the cap only allows two
  // exclusions, which must go to the two highest scores.
  const std::vector<float> scores = {1.0f, 1.0f, 1.0f, 1.0f,
                                     100.0f, 200.0f, 300.0f};
  robust::AnomalyOptions options;
  options.max_exclude_fraction = 0.3;  // floor(7 * 0.3) = 2 exclusions max
  const robust::ExclusionDecision decision =
      robust::decide_exclusions(scores, options);
  std::size_t excluded = 0;
  for (std::uint8_t e : decision.excluded) excluded += e;
  EXPECT_EQ(excluded, 2u);
  EXPECT_EQ(decision.excluded[6], 1u);
  EXPECT_EQ(decision.excluded[5], 1u);
  EXPECT_EQ(decision.excluded[4], 0u);  // over threshold, spared by the cap
}

TEST(Anomaly, HomogeneousCohortStaysIntact) {
  // Identical scores: MAD = 0, but the spread floor keeps float jitter from
  // flagging anyone.
  const std::vector<float> scores(6, 0.25f);
  const robust::ExclusionDecision decision =
      robust::decide_exclusions(scores, {});
  for (std::uint8_t e : decision.excluded) EXPECT_EQ(e, 0u);
}

// ------------------------------------------------- adaptive norm tracking ---

TEST(WeightNormTracker, FallsBackUntilEnoughHistoryThenUsesMedianMad) {
  comm::WeightNormTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.bound_or(7.0, 6.0, 4), 7.0);
  tracker.record(1.0);
  tracker.record(2.0);
  tracker.record(3.0);
  EXPECT_DOUBLE_EQ(tracker.bound_or(7.0, 6.0, 4), 7.0);  // still short
  tracker.record(4.0);
  // median 2.5, deviations {1.5, 0.5, 0.5, 1.5} -> MAD 1.0.
  EXPECT_DOUBLE_EQ(tracker.bound_or(7.0, 2.0, 4), 2.5 + 2.0 * 1.0);
}

TEST(WeightNormTracker, IgnoresJunkAndTrimsOldHistory) {
  comm::WeightNormTracker tracker;
  tracker.record(-1.0);
  tracker.record(std::numeric_limits<double>::quiet_NaN());
  tracker.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(tracker.size(), 0u);
  for (std::size_t i = 0; i < comm::WeightNormTracker::kMaxHistory + 10; ++i) {
    tracker.record(static_cast<double>(i));
  }
  EXPECT_EQ(tracker.size(), comm::WeightNormTracker::kMaxHistory);
  EXPECT_DOUBLE_EQ(tracker.history().front(), 10.0);  // oldest were dropped
}

TEST(WeightNormTracker, StateRoundTripsBitwise) {
  comm::WeightNormTracker tracker;
  for (double v : {3.5, 1.25, 9.0, 2.0, 4.75}) tracker.record(v);
  std::vector<std::byte> blob;
  auto writer = tensor::StateIo::writer(blob);
  tracker.persist(writer);

  comm::WeightNormTracker restored;
  restored.record(123.0);  // pre-existing state must be replaced
  auto reader = tensor::StateIo::reader(blob);
  restored.persist(reader);
  EXPECT_EQ(reader.offset(), blob.size());
  ASSERT_EQ(restored.history(), tracker.history());
  EXPECT_DOUBLE_EQ(restored.bound_or(0.0, 6.0, 4), tracker.bound_or(0.0, 6.0, 4));
}

// --------------------------------------------------- variance-weight cap ----

TEST(VarianceCap, UncappedWeightsLetOneClientDictateASample) {
  // Client 0 emits an enormous-variance logit row for sample 0; the others
  // are mild. Uncapped, client 0's weight for that sample is ~1.0 — the
  // adversarial failure mode the cap exists for.
  Tensor loud({2, 3});
  loud[0] = 1000.0f; loud[1] = -1000.0f; loud[2] = 0.0f;  // sample 0: huge var
  loud[3] = 1.0f;    loud[4] = 0.0f;     loud[5] = 0.0f;
  Tensor quiet({2, 3});
  quiet[0] = 1.0f; quiet[1] = 0.5f; quiet[2] = 0.0f;
  quiet[3] = 0.0f; quiet[4] = 1.0f; quiet[5] = 0.5f;
  Tensor quiet2 = quiet;
  quiet2[0] = 0.8f;
  const std::vector<Tensor> logits = {loud, quiet, quiet2};

  const Tensor uncapped = core::variance_aggregation_weights(logits);
  const std::size_t n = 2;
  EXPECT_GT(uncapped[0 * n + 0], 0.99f);  // regression: dominance

  const Tensor capped = core::variance_aggregation_weights(logits, 0.4f);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_LE(capped[c * n + i], 0.4f + 1e-5f) << "sample " << i;
      sum += capped[c * n + i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-5) << "sample " << i;
  }
  // The waterfilled aggregate no longer tracks the loud client's poison.
  const Tensor agg = core::aggregate_logits_variance_weighted(logits, 0.4f);
  EXPECT_LT(std::fabs(agg[0]), 500.0f);
}

TEST(VarianceCap, InfeasibleCapFallsBackToUniform) {
  Tensor a({1, 2});
  a[0] = 5.0f; a[1] = -5.0f;
  Tensor b({1, 2});
  b[0] = 0.1f; b[1] = 0.0f;
  const std::vector<Tensor> logits = {a, b};
  // cap 0.3 < 1/2: no valid column assignment exists.
  const Tensor weights = core::variance_aggregation_weights(logits, 0.3f);
  EXPECT_FLOAT_EQ(weights[0], 0.5f);
  EXPECT_FLOAT_EQ(weights[1], 0.5f);
}

// --------------------------------------------------------- attack injector --

TEST(AttackInjector, SignFlipAndBoostRewriteTensors) {
  robust::AttackPlan plan;
  plan.adversaries = {{0, robust::AttackType::kSignFlip, 0.0},
                      {1, robust::AttackType::kScaledBoost, 3.0}};
  robust::AttackInjector injector;
  injector.set_plan(plan);

  std::vector<comm::Payload> parts = weights_bundle(vec({1.0f, -2.0f}));
  EXPECT_TRUE(injector.apply(0, 0, parts));
  const auto& flipped = std::get<comm::WeightsPayload>(parts[0]).flat;
  EXPECT_FLOAT_EQ(flipped[0], -1.0f);
  EXPECT_FLOAT_EQ(flipped[1], 2.0f);

  parts = weights_bundle(vec({1.0f, -2.0f}));
  EXPECT_TRUE(injector.apply(0, 1, parts));
  const auto& boosted = std::get<comm::WeightsPayload>(parts[0]).flat;
  EXPECT_FLOAT_EQ(boosted[0], 3.0f);
  EXPECT_FLOAT_EQ(boosted[1], -6.0f);

  // Honest nodes and pre-start rounds are untouched.
  parts = weights_bundle(vec({1.0f}));
  EXPECT_FALSE(injector.apply(0, 2, parts));
  EXPECT_FLOAT_EQ(std::get<comm::WeightsPayload>(parts[0]).flat[0], 1.0f);

  robust::AttackPlan late = plan;
  late.start_round = 5;
  injector.set_plan(late);
  EXPECT_FALSE(injector.apply(4, 0, parts));
  EXPECT_TRUE(injector.apply(5, 0, parts));
}

TEST(AttackInjector, LabelFlipIsAnInvolutionAndLeavesPayloadsAlone) {
  std::vector<int> labels = {0, 4, 9, 3};
  const std::vector<int> original = labels;
  robust::flip_labels(labels, 10);
  EXPECT_EQ(labels, (std::vector<int>{9, 5, 0, 6}));
  robust::flip_labels(labels, 10);
  EXPECT_EQ(labels, original);

  robust::AttackPlan plan;
  plan.adversaries = {{0, robust::AttackType::kLabelFlip, 0.0}};
  robust::AttackInjector injector;
  injector.set_plan(plan);
  EXPECT_TRUE(injector.flips_labels(0, 0));
  EXPECT_FALSE(injector.flips_labels(0, 1));
  std::vector<comm::Payload> parts = weights_bundle(vec({1.0f}));
  EXPECT_TRUE(injector.apply(0, 0, parts));  // counts as adversarial presence
  EXPECT_FLOAT_EQ(std::get<comm::WeightsPayload>(parts[0]).flat[0], 1.0f);
}

TEST(AttackInjector, FreeRiderReplaysThePreviousRound) {
  robust::AttackPlan plan;
  plan.adversaries = {{2, robust::AttackType::kFreeRider, 0.0}};
  robust::AttackInjector injector;
  injector.set_plan(plan);

  // Round 0 primes: the fresh upload passes through.
  std::vector<comm::Payload> round0 = weights_bundle(vec({10.0f}));
  EXPECT_TRUE(injector.apply(0, 2, round0));
  EXPECT_FLOAT_EQ(std::get<comm::WeightsPayload>(round0[0]).flat[0], 10.0f);

  // Round 1 replays round 0's bundle instead of the fresh one.
  std::vector<comm::Payload> round1 = weights_bundle(vec({20.0f}));
  EXPECT_TRUE(injector.apply(1, 2, round1));
  EXPECT_FLOAT_EQ(std::get<comm::WeightsPayload>(round1[0]).flat[0], 10.0f);

  // Round 2 replays the *fresh* round-1 upload (one-round staleness).
  std::vector<comm::Payload> round2 = weights_bundle(vec({30.0f}));
  EXPECT_TRUE(injector.apply(2, 2, round2));
  EXPECT_FLOAT_EQ(std::get<comm::WeightsPayload>(round2[0]).flat[0], 20.0f);
}

TEST(AttackInjector, ReplayCacheRoundTripsThroughSaveLoad) {
  robust::AttackPlan plan;
  plan.adversaries = {{1, robust::AttackType::kFreeRider, 0.0}};
  robust::AttackInjector a;
  a.set_plan(plan);
  std::vector<comm::Payload> primer = weights_bundle(vec({7.0f, -3.0f}));
  EXPECT_TRUE(a.apply(0, 1, primer));

  std::vector<std::byte> blob;
  auto writer = tensor::StateIo::writer(blob);
  a.persist(writer);
  robust::AttackInjector b;
  b.set_plan(plan);
  auto reader = tensor::StateIo::reader(blob);
  b.persist(reader);
  EXPECT_EQ(reader.offset(), blob.size());

  // Both injectors must now replay the identical cached bundle.
  std::vector<comm::Payload> fresh_a = weights_bundle(vec({99.0f, 99.0f}));
  std::vector<comm::Payload> fresh_b = weights_bundle(vec({99.0f, 99.0f}));
  EXPECT_TRUE(a.apply(1, 1, fresh_a));
  EXPECT_TRUE(b.apply(1, 1, fresh_b));
  const auto& wa = std::get<comm::WeightsPayload>(fresh_a[0]).flat;
  const auto& wb = std::get<comm::WeightsPayload>(fresh_b[0]).flat;
  ASSERT_EQ(wa.numel(), wb.numel());
  for (std::size_t j = 0; j < wa.numel(); ++j) {
    EXPECT_EQ(float_bits(wa[j]), float_bits(wb[j]));
  }
  EXPECT_FLOAT_EQ(wa[0], 7.0f);
}

TEST(AttackInjector, PrototypeShiftIsDeterministicPerSeedNodeClass) {
  robust::AttackPlan plan;
  plan.adversaries = {{0, robust::AttackType::kPrototypeShift, 5.0}};
  const auto shifted = [&](std::size_t round) {
    robust::AttackInjector injector;
    injector.set_plan(plan);
    std::vector<comm::Payload> parts = {
        comm::Payload(protos({{2, vec({1.0f, 2.0f, 3.0f})}}))};
    EXPECT_TRUE(injector.apply(round, 0, parts));
    return std::get<comm::PrototypesPayload>(parts[0]).entries[0].centroid;
  };
  const Tensor first = shifted(0);
  const Tensor again = shifted(0);
  double displacement = 0.0;
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(float_bits(first[j]), float_bits(again[j]));
    const double d = static_cast<double>(first[j]) -
                     static_cast<double>(vec({1.0f, 2.0f, 3.0f})[j]);
    displacement += d * d;
  }
  EXPECT_NEAR(std::sqrt(displacement), 5.0, 1e-3);
}

TEST(AttackInjector, RejectsDuplicateNodesAndJunkScales) {
  robust::AttackPlan dup;
  dup.adversaries = {{0, robust::AttackType::kSignFlip, 1.0},
                     {0, robust::AttackType::kScaledBoost, 2.0}};
  robust::AttackInjector injector;
  EXPECT_THROW(injector.set_plan(dup), std::invalid_argument);

  robust::AttackPlan junk;
  junk.adversaries = {{0, robust::AttackType::kScaledBoost,
                       std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(injector.set_plan(junk), std::invalid_argument);
}

}  // namespace
}  // namespace fedpkd
