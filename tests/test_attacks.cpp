// End-to-end tests for the adversarial-client attack harness and the
// Byzantine-robust aggregation policy: every algorithm running every attack
// type bitwise-identically at 1 and 4 threads while robust aggregation keeps
// accuracy inside the honest band, Krum's selection guarantee (the aggregate
// IS an honest upload, bit for bit), anomaly-based exclusion being equivalent
// to the adversary having been offline, the non-robust baselines demonstrably
// degrading under the same attacks, and crash-resume mid-attack.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/fedproto.hpp"
#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/dsfl.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/feddf.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/fl/fedmd.hpp"
#include "fedpkd/fl/fedprox.hpp"
#include "fedpkd/fl/round_pipeline.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd {
namespace {

using tensor::Tensor;

std::uint32_t float_bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

const std::vector<std::string> kAllAlgorithms = {
    "FedAvg", "FedProx", "FedMD", "DS-FL",
    "FedDF",  "FedET",   "FedProto", "FedPKD"};

const std::vector<robust::AttackType> kAllAttacks = {
    robust::AttackType::kSignFlip, robust::AttackType::kScaledBoost,
    robust::AttackType::kLabelFlip, robust::AttackType::kFreeRider,
    robust::AttackType::kPrototypeShift};

constexpr comm::NodeId kAdversary = 1;

/// 5 homogeneous resmlp11 clients — enough for a 4/5 honest majority, which
/// every estimator under test assumes.
std::unique_ptr<fl::Federation> attacked_federation(std::size_t threads) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(31));
  const auto bundle = task.make_bundle(150, 90, 60);
  fl::FederationConfig config;
  config.num_clients = 5;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 30;
  config.seed = 33;
  config.num_threads = threads;
  return fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                              config);
}

std::unique_ptr<fl::Algorithm> make_algorithm(const std::string& name,
                                              fl::Federation& fed) {
  if (name == "FedAvg") {
    return std::make_unique<fl::FedAvg>(
        fed, fl::FedAvg::Options{.local_epochs = 1, .proximal_mu = {}});
  }
  if (name == "FedProx") {
    return std::make_unique<fl::FedProx>(
        fed, fl::FedProx::Options{.local_epochs = 1, .mu = 0.01f});
  }
  if (name == "FedMD") {
    return std::make_unique<fl::FedMd>(fl::FedMd::Options{
        .local_epochs = 1, .digest_epochs = 1, .distill_temperature = 1.0f});
  }
  if (name == "DS-FL") {
    return std::make_unique<fl::DsFl>(fl::DsFl::Options{
        .local_epochs = 1, .digest_epochs = 1, .sharpen_temperature = 0.5f});
  }
  if (name == "FedDF") {
    return std::make_unique<fl::FedDf>(
        fed, fl::FedDf::Options{.local_epochs = 1,
                                .server_epochs = 1,
                                .distill_batch = 32,
                                .distill_temperature = 1.0f});
  }
  if (name == "FedET") {
    fl::FedEt::Options o;
    o.local_epochs = 1;
    o.server_epochs = 1;
    o.client_digest_epochs = 1;
    o.server_arch = "resmlp11";
    return std::make_unique<fl::FedEt>(fed, o);
  }
  if (name == "FedProto") {
    return std::make_unique<core::FedProto>(
        core::FedProto::Options{.local_epochs = 1, .prototype_weight = 0.5f});
  }
  if (name == "FedPKD") {
    core::FedPkd::Options o;
    o.local_epochs = 1;
    o.public_epochs = 1;
    o.server_epochs = 1;
    o.server_arch = "resmlp11";
    return std::make_unique<core::FedPkd>(fed, o);
  }
  throw std::logic_error("unknown algorithm: " + name);
}

/// The seeded acceptance attack: one adversary, overridable from the CI
/// attack-matrix job's environment.
robust::AttackPlan matrix_plan(robust::AttackType type) {
  robust::AttackPlan plan;
  plan.seed = 0x41414141u;
  plan.adversaries = {{kAdversary, type, 25.0}};
  if (const char* env = std::getenv("FEDPKD_TEST_ATTACK_SCALE")) {
    plan.adversaries[0].scale = std::strtod(env, nullptr);
  }
  if (const char* env = std::getenv("FEDPKD_TEST_ATTACK_SEED")) {
    plan.seed = std::strtoull(env, nullptr, 10);
  }
  return plan;
}

void expect_same_faults(const fl::RoundFaultStats& a,
                        const fl::RoundFaultStats& b, const std::string& what) {
  EXPECT_EQ(a.send_attempts, b.send_attempts) << what;
  EXPECT_EQ(a.retries, b.retries) << what;
  EXPECT_EQ(a.frames_dropped, b.frames_dropped) << what;
  EXPECT_EQ(a.corrupt_frames, b.corrupt_frames) << what;
  EXPECT_EQ(a.bundles_lost, b.bundles_lost) << what;
  EXPECT_EQ(a.stragglers_excluded, b.stragglers_excluded) << what;
  EXPECT_EQ(a.rejected_contributions, b.rejected_contributions) << what;
  EXPECT_EQ(a.quorum_misses, b.quorum_misses) << what;
  EXPECT_EQ(a.clients_crashed, b.clients_crashed) << what;
  EXPECT_EQ(a.attacks_injected, b.attacks_injected) << what;
  EXPECT_EQ(a.anomaly_excluded, b.anomaly_excluded) << what;
  EXPECT_EQ(a.clipped_contributions, b.clipped_contributions) << what;
  EXPECT_DOUBLE_EQ(a.max_upload_latency_ms, b.max_upload_latency_ms) << what;
}

void expect_same_anomaly(const fl::RoundMetrics& a, const fl::RoundMetrics& b,
                         const std::string& what) {
  ASSERT_EQ(a.anomaly.size(), b.anomaly.size()) << what;
  for (std::size_t i = 0; i < a.anomaly.size(); ++i) {
    EXPECT_EQ(a.anomaly[i].node, b.anomaly[i].node) << what;
    EXPECT_EQ(float_bits(a.anomaly[i].score), float_bits(b.anomaly[i].score))
        << what;
    EXPECT_EQ(a.anomaly[i].excluded, b.anomaly[i].excluded) << what;
  }
}

fl::RunHistory run_rounds(const std::string& name, fl::Federation& fed,
                          std::size_t rounds) {
  auto algo = make_algorithm(name, fed);
  fl::RunOptions opts;
  opts.rounds = rounds;
  fl::RunHistory history = fl::run_federation(*algo, fed, opts);
  exec::set_num_threads(1);
  return history;
}

// ----------------------------------------------------------- attack matrix --

/// The acceptance matrix: every algorithm under every attack type with
/// coordinate-median robust aggregation, run at 1 and `FEDPKD_TEST_THREADS`
/// lanes. Three obligations per cell: bitwise thread-count invariance, the
/// attack counter actually firing, and final accuracy staying inside the
/// honest-only band.
TEST(AttackMatrix, AllAlgorithmsAllAttacksDeterministicAndInsideHonestBand) {
  std::size_t threads = 4;
  if (const char* env = std::getenv("FEDPKD_TEST_THREADS")) {
    threads = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  constexpr std::size_t kRounds = 2;
  constexpr float kBand = 0.35f;

  for (const std::string& name : kAllAlgorithms) {
    // Honest reference: same robust rule, no adversary.
    auto honest_fed = attacked_federation(1);
    honest_fed->robust.rule = robust::RobustAggregation::kMedian;
    const fl::RunHistory honest = run_rounds(name, *honest_fed, kRounds);
    const float honest_acc = honest.final_round().mean_client_accuracy;

    for (robust::AttackType type : kAllAttacks) {
      const std::string what = name + " under " + robust::to_string(type);
      const auto run = [&](std::size_t run_threads) {
        auto fed = attacked_federation(run_threads);
        fed->robust.rule = robust::RobustAggregation::kMedian;
        fed->set_attack_plan(matrix_plan(type));
        return run_rounds(name, *fed, kRounds);
      };
      const fl::RunHistory serial = run(1);
      const fl::RunHistory parallel = run(threads);

      ASSERT_EQ(serial.rounds.size(), kRounds) << what;
      ASSERT_EQ(parallel.rounds.size(), kRounds) << what;
      for (std::size_t t = 0; t < kRounds; ++t) {
        const fl::RoundMetrics& a = serial.rounds[t];
        const fl::RoundMetrics& b = parallel.rounds[t];
        const std::string where = what + " round " + std::to_string(t);
        ASSERT_EQ(a.server_accuracy.has_value(), b.server_accuracy.has_value())
            << where;
        if (a.server_accuracy) {
          EXPECT_TRUE(std::isfinite(*a.server_accuracy)) << where;
          EXPECT_EQ(float_bits(*a.server_accuracy),
                    float_bits(*b.server_accuracy))
              << where;
        }
        ASSERT_EQ(a.client_accuracy.size(), b.client_accuracy.size()) << where;
        for (std::size_t c = 0; c < a.client_accuracy.size(); ++c) {
          EXPECT_TRUE(std::isfinite(a.client_accuracy[c])) << where;
          EXPECT_EQ(float_bits(a.client_accuracy[c]),
                    float_bits(b.client_accuracy[c]))
              << where << " client " << c;
        }
        EXPECT_EQ(a.cumulative_bytes, b.cumulative_bytes) << where;
        ASSERT_TRUE(a.fault_stats.has_value()) << where;
        ASSERT_TRUE(b.fault_stats.has_value()) << where;
        expect_same_faults(*a.fault_stats, *b.fault_stats, where);
        expect_same_anomaly(a, b, where);
        // Exactly one adversary acts per round.
        EXPECT_EQ(a.fault_stats->attacks_injected, 1u) << where;
      }
      // The robust aggregate holds the line: final mean client accuracy
      // stays within the tested band of the honest-only run.
      const float attacked_acc = serial.final_round().mean_client_accuracy;
      EXPECT_NEAR(attacked_acc, honest_acc, kBand) << what;
    }
  }
}

// -------------------------------------------------- Krum selection proof ----

/// FedAvg whose server_step records the post-attack contribution weights it
/// aggregated, so the test can check Krum's output against them bit for bit.
struct RecordingFedAvg : fl::FedAvg {
  using FedAvg::FedAvg;
  std::vector<Tensor> seen;
  std::vector<comm::NodeId> senders;
  void server_step(fl::RoundContext& ctx,
                   std::vector<fl::Contribution>& contributions) override {
    seen.clear();
    senders.clear();
    for (const fl::Contribution& c : contributions) {
      seen.push_back(c.bundle.weights().flat);
      senders.push_back(c.client->id);
    }
    fl::FedAvg::server_step(ctx, contributions);
  }
};

TEST(KrumGuarantee, AggregateIsBitwiseAnHonestUploadUnderBoost) {
  auto fed = attacked_federation(1);
  fed->robust.rule = robust::RobustAggregation::kKrum;
  fed->robust.assumed_adversaries = 1;
  fed->set_attack_plan(matrix_plan(robust::AttackType::kScaledBoost));

  RecordingFedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  fl::RunOptions opts;
  opts.rounds = 1;
  fl::run_federation(algo, *fed, opts);

  ASSERT_EQ(algo.seen.size(), 5u);
  const Tensor global = algo.server_model()->flat_weights();
  // The aggregate must be bitwise equal to some HONEST client's upload —
  // Krum copies its winner — and never the boosted adversary's.
  std::size_t matches = 0;
  for (std::size_t i = 0; i < algo.seen.size(); ++i) {
    const bool equal =
        tensor::max_abs_difference(global, algo.seen[i]) == 0.0f;
    if (equal) {
      ++matches;
      EXPECT_NE(algo.senders[i], kAdversary);
    }
  }
  EXPECT_EQ(matches, 1u);
}

// ------------------------------------------- exclusion ≡ offline adversary --

TEST(AnomalyExclusion, ExcludedBoosterMatchesOfflineAdversaryBitwise) {
  constexpr std::size_t kRounds = 3;

  // Attacked run: plain weighted-mean FedAvg, but the anomaly filter must
  // spot and exclude the boosted client every round. Theta is deliberately
  // loose: the x25 booster scores orders of magnitude above the cohort, and
  // a tight theta would also flag honest clients' natural spread, breaking
  // the offline-equivalence this test asserts.
  auto attacked_fed = attacked_federation(1);
  attacked_fed->robust.anomaly_filter = true;
  attacked_fed->robust.anomaly_theta = 32.0;
  attacked_fed->set_attack_plan(matrix_plan(robust::AttackType::kScaledBoost));
  auto attacked = make_algorithm("FedAvg", *attacked_fed);
  fl::RunOptions opts;
  opts.rounds = kRounds;
  const fl::RunHistory attacked_history =
      fl::run_federation(*attacked, *attacked_fed, opts);

  for (std::size_t t = 0; t < kRounds; ++t) {
    const fl::RoundMetrics& m = attacked_history.rounds[t];
    ASSERT_TRUE(m.fault_stats.has_value());
    EXPECT_EQ(m.fault_stats->anomaly_excluded, 1u) << "round " << t;
    bool adversary_flagged = false;
    for (const fl::ClientAnomaly& a : m.anomaly) {
      if (a.node == kAdversary) {
        adversary_flagged = a.excluded;
        EXPECT_FALSE(a.reason.empty());
      } else {
        EXPECT_FALSE(a.excluded) << "round " << t << " node " << a.node;
      }
    }
    EXPECT_TRUE(adversary_flagged) << "round " << t;
  }

  // Reference run: the adversary's uplink is simply dead. The surviving
  // contributions are identical, so the global model must be too — bitwise.
  auto offline_fed = attacked_federation(1);
  offline_fed->channel.set_node_offline(kAdversary, true);
  auto offline = make_algorithm("FedAvg", *offline_fed);
  fl::run_federation(*offline, *offline_fed, opts);

  EXPECT_EQ(tensor::max_abs_difference(attacked->server_model()->flat_weights(),
                                       offline->server_model()->flat_weights()),
            0.0f);
}

// ----------------------------------------------- baseline degradation -------

TEST(BaselineDegradation, PlainMeanBlowsUpUnderBoostAndDriftsUnderSignFlip) {
  constexpr std::size_t kRounds = 1;

  auto honest_fed = attacked_federation(1);
  auto honest = make_algorithm("FedAvg", *honest_fed);
  fl::RunOptions opts;
  opts.rounds = kRounds;
  fl::run_federation(*honest, *honest_fed, opts);
  const Tensor honest_global = honest->server_model()->flat_weights();
  const double honest_norm = robust::l2_norm(honest_global);
  ASSERT_GT(honest_norm, 0.0);

  // Scaled boosting: the 25x contribution drags the mean's norm far out.
  auto boosted_fed = attacked_federation(1);
  boosted_fed->set_attack_plan(matrix_plan(robust::AttackType::kScaledBoost));
  auto boosted = make_algorithm("FedAvg", *boosted_fed);
  fl::run_federation(*boosted, *boosted_fed, opts);
  const double boosted_norm =
      robust::l2_norm(boosted->server_model()->flat_weights());
  EXPECT_GT(boosted_norm / honest_norm, 3.0);

  // Sign flip: the mean moves by a macroscopic fraction of its own norm.
  auto flipped_fed = attacked_federation(1);
  flipped_fed->set_attack_plan(matrix_plan(robust::AttackType::kSignFlip));
  auto flipped = make_algorithm("FedAvg", *flipped_fed);
  fl::run_federation(*flipped, *flipped_fed, opts);
  Tensor diff = flipped->server_model()->flat_weights();
  tensor::axpy_inplace(diff, -1.0f, honest_global);
  EXPECT_GT(robust::l2_norm(diff) / honest_norm, 0.1);

  // The same boost under Krum leaves the global inside the honest envelope.
  auto robust_fed = attacked_federation(1);
  robust_fed->robust.rule = robust::RobustAggregation::kKrum;
  robust_fed->set_attack_plan(matrix_plan(robust::AttackType::kScaledBoost));
  auto robust_algo = make_algorithm("FedAvg", *robust_fed);
  fl::run_federation(*robust_algo, *robust_fed, opts);
  const double robust_norm =
      robust::l2_norm(robust_algo->server_model()->flat_weights());
  EXPECT_LT(robust_norm / honest_norm, 2.0);
}

// ----------------------------------------------- adaptive norm validation ---

TEST(AdaptiveNorm, BoundTightensFromHistoryAndRejectsTheBooster) {
  // Fixed-bound path: a generous explicit bound accepts everyone.
  auto fixed_fed = attacked_federation(1);
  fixed_fed->policy.validation.max_weights_norm = 1e9;
  fixed_fed->set_attack_plan(matrix_plan(robust::AttackType::kScaledBoost));
  auto fixed = make_algorithm("FedAvg", *fixed_fed);
  fl::RunOptions opts;
  opts.rounds = 3;
  const fl::RunHistory fixed_history =
      fl::run_federation(*fixed, *fixed_fed, opts);
  for (const fl::RoundMetrics& m : fixed_history.rounds) {
    EXPECT_EQ(m.fault_stats->rejected_contributions, 0u);
  }

  // Adaptive path: round 0 runs on the fallback (accept-all, bound 0 =
  // disabled fallback) while history accumulates; once `adaptive_min_history`
  // honest norms are recorded, the median+MAD bound snaps shut on the 25x
  // upload.
  auto adaptive_fed = attacked_federation(1);
  adaptive_fed->policy.validation.adaptive_weights_norm = true;
  adaptive_fed->policy.validation.adaptive_norm_factor = 6.0;
  adaptive_fed->policy.validation.adaptive_min_history = 4;
  adaptive_fed->set_attack_plan(matrix_plan(robust::AttackType::kScaledBoost));
  auto adaptive = make_algorithm("FedAvg", *adaptive_fed);
  const fl::RunHistory adaptive_history =
      fl::run_federation(*adaptive, *adaptive_fed, opts);
  std::size_t rejected = 0;
  for (const fl::RoundMetrics& m : adaptive_history.rounds) {
    rejected += m.fault_stats->rejected_contributions;
  }
  EXPECT_GE(rejected, 2u);  // rounds 1 and 2 reject the boosted upload
  EXPECT_GT(adaptive_fed->norm_tracker.size(), 0u);
}

// ------------------------------------------------------ resume mid-attack ---

/// Scratch directory for a checkpoint chain, removed on scope exit.
struct ScopedDir {
  std::filesystem::path path;
  explicit ScopedDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Checkpoint v3 round-trip under attack: a free-rider (whose replay cache is
/// real injector state) plus robust aggregation and the anomaly filter, cut
/// mid-run and resumed, must reproduce the straight run bit for bit.
void expect_bitwise_resume_under_attack(const std::string& name) {
  robust::AttackPlan plan = matrix_plan(robust::AttackType::kFreeRider);
  constexpr std::size_t kTotalRounds = 6;
  constexpr std::size_t kCut = 3;

  const auto configure = [&](fl::Federation& fed) {
    fed.robust.rule = robust::RobustAggregation::kMedian;
    fed.robust.anomaly_filter = true;
    fed.policy.validation.adaptive_weights_norm = true;
    fed.set_attack_plan(plan);
  };

  fl::RunOptions base;
  base.rounds = kTotalRounds;

  auto straight_fed = attacked_federation(1);
  configure(*straight_fed);
  auto straight = make_algorithm(name, *straight_fed);
  const fl::RunHistory want =
      fl::run_federation(*straight, *straight_fed, base);

  const ScopedDir dir("fedpkd_test_attacks_" + name);
  fl::durable::GenerationChain chain(dir.path / "run.ckpt");
  auto first_fed = attacked_federation(1);
  configure(*first_fed);
  auto first = make_algorithm(name, *first_fed);
  fl::RunOptions until_cut = base;
  until_cut.rounds = kCut;
  until_cut.checkpoint_every = kCut;
  until_cut.checkpoint_chain = &chain;
  fl::run_federation(*first, *first_fed, until_cut);
  ASSERT_TRUE(std::filesystem::exists(chain.generation_path(1))) << name;

  auto resumed_fed = attacked_federation(1);
  configure(*resumed_fed);
  auto resumed = make_algorithm(name, *resumed_fed);
  const auto loaded =
      fl::load_federation_checkpoint(chain, *resumed, *resumed_fed);
  ASSERT_TRUE(loaded.has_value()) << name;
  const fl::FederationResume& state = loaded->resume;
  ASSERT_EQ(state.next_round, kCut) << name;
  fl::RunOptions rest = base;
  rest.start_round = state.next_round;
  const fl::RunHistory tail = fl::run_federation(*resumed, *resumed_fed, rest);

  std::vector<fl::RoundMetrics> got = state.history.rounds;
  got.insert(got.end(), tail.rounds.begin(), tail.rounds.end());
  ASSERT_EQ(got.size(), want.rounds.size()) << name;
  for (std::size_t t = 0; t < got.size(); ++t) {
    const fl::RoundMetrics& a = want.rounds[t];
    const fl::RoundMetrics& b = got[t];
    const std::string what = name + " round " + std::to_string(t);
    ASSERT_EQ(a.server_accuracy.has_value(), b.server_accuracy.has_value())
        << what;
    if (a.server_accuracy) {
      EXPECT_EQ(float_bits(*a.server_accuracy), float_bits(*b.server_accuracy))
          << what;
    }
    ASSERT_EQ(a.client_accuracy.size(), b.client_accuracy.size()) << what;
    for (std::size_t c = 0; c < a.client_accuracy.size(); ++c) {
      EXPECT_EQ(float_bits(a.client_accuracy[c]),
                float_bits(b.client_accuracy[c]))
          << what << " client " << c;
    }
    EXPECT_EQ(a.cumulative_bytes, b.cumulative_bytes) << what;
    ASSERT_EQ(a.fault_stats.has_value(), b.fault_stats.has_value()) << what;
    if (a.fault_stats) expect_same_faults(*a.fault_stats, *b.fault_stats, what);
    expect_same_anomaly(a, b, what);
  }

  ASSERT_NE(straight->server_model(), nullptr) << name;
  ASSERT_NE(resumed->server_model(), nullptr) << name;
  EXPECT_EQ(
      tensor::max_abs_difference(straight->server_model()->flat_weights(),
                                 resumed->server_model()->flat_weights()),
      0.0f)
      << name;
  for (std::size_t c = 0; c < straight_fed->num_clients(); ++c) {
    EXPECT_EQ(tensor::max_abs_difference(
                  straight_fed->client(c).model.flat_weights(),
                  resumed_fed->client(c).model.flat_weights()),
              0.0f)
        << name << " client " << c;
  }
}

TEST(AttackResume, FedAvgResumesBitwiseMidAttack) {
  expect_bitwise_resume_under_attack("FedAvg");
}

TEST(AttackResume, FedPkdResumesBitwiseMidAttack) {
  expect_bitwise_resume_under_attack("FedPKD");
}

}  // namespace
}  // namespace fedpkd
