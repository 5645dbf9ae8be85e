// Golden trace of the sync round discipline under every fault at once: seeded
// drops, corruption, latency + jitter, stragglers past a finite upload
// deadline, quorum 0.5, the anomaly filter excluding a scaled-boost attacker,
// and a two-edge aggregation tier. The fault, attack, pool and scaling
// matrices only compare 1 lane with N lanes, so a change that alters sync the
// same way at every lane count would pass them; this test pins the absolute
// state instead. After each round it takes the CRC32 of
// encode_federation_checkpoint — weights, fault counters, engine stats,
// anomaly records and engine state — and compares it with a recorded
// constant, at 1 and 4 lanes. A virtual-pool FedAvg leg also pins the
// per-round pool counters, which the checkpoint does not carry.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fedpkd/comm/frame.hpp"
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
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd {
namespace {

constexpr std::size_t kRounds = 3;
constexpr comm::NodeId kBooster = 1;
constexpr comm::NodeId kSlowStraggler = 2;

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
  core::FedPkd::Options o;
  o.local_epochs = 1;
  o.public_epochs = 1;
  o.server_epochs = 1;
  o.server_arch = "resmlp11";
  return std::make_unique<core::FedPkd>(fed, o);
}

/// Every sync fault knob at once. Node 2 is slow enough to miss the 8 ms
/// deadline on every upload; node 3 is a mild straggler that usually makes
/// it. Nodes 4 and 5 crash before the last round's upload, leaving the
/// booster among at most a quorum of survivors: where the filter excludes
/// it, filtering before the quorum check must miss the quorum.
void apply_discipline(fl::Federation& fed) {
  comm::FaultPlan faults;
  faults.seed = 0x5c0de;
  faults.drop_probability = 0.1;
  faults.corrupt_probability = 0.05;
  faults.latency_ms = 1.0;
  faults.jitter_ms = 0.5;
  faults.max_retries = 3;
  faults.stragglers = {{kSlowStraggler, 10.0}, {3, 2.0}};
  faults.crashes = {{2, comm::RoundStage::kUpload, 4},
                    {2, comm::RoundStage::kUpload, 5}};
  fed.channel.set_fault_plan(faults);
  fed.policy.upload_deadline_ms = 8.0;
  fed.policy.quorum_fraction = 0.5;
  fed.robust.anomaly_filter = true;
  fed.robust.anomaly_theta = 32.0;
  fed.edge_aggregators = 2;
  robust::AttackPlan attacks;
  attacks.seed = 0x5b005u;
  attacks.adversaries = {{kBooster, robust::AttackType::kScaledBoost, 25.0}};
  fed.set_attack_plan(attacks);
}

std::unique_ptr<fl::Federation> resident_federation(std::size_t threads) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(41));
  const auto bundle = task.make_bundle(180, 90, 60);
  fl::FederationConfig config;
  config.num_clients = 6;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 30;
  config.seed = 43;
  config.num_threads = threads;
  auto fed =
      fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.5), config);
  apply_discipline(*fed);
  return fed;
}

std::unique_ptr<fl::Federation> virtual_federation(std::size_t threads) {
  fl::VirtualFederationConfig config;
  config.task = data::SyntheticVisionConfig::synth10(45);
  config.population = 16;
  config.cohort_size = 6;
  config.warm_capacity = 6;
  config.client_archs = {"resmlp11"};
  config.shard_size = 30;
  config.local_test_per_client = 24;
  config.test_n = 120;
  config.public_n = 90;
  config.seed = 47;
  config.num_threads = threads;
  auto fed = fl::build_virtual_federation(config);
  apply_discipline(*fed);
  return fed;
}

/// encode_federation_checkpoint needs a resumable algorithm. For drivers
/// without resume support this stand-in supplies every client's weights and
/// the server model as the algorithm blob, so the image still covers the
/// model state next to the federation's own.
class WeightsImage final : public fl::Algorithm {
 public:
  WeightsImage(fl::Algorithm& inner, fl::Federation& fed)
      : inner_(inner), fed_(fed) {}
  std::string name() const override { return inner_.name(); }
  void run_round(fl::Federation&, std::size_t) override {}
  bool supports_resume() const override { return true; }
  void persist(tensor::StateIo& io) override {
    const auto append = [&](nn::Classifier& model) {
      tensor::Tensor weights = model.flat_weights();
      io.tensor(weights);
    };
    for (std::size_t id = 0; id < fed_.num_clients(); ++id) {
      append(fed_.client(id).model);
    }
    if (nn::Classifier* server = inner_.server_model()) append(*server);
  }

 private:
  fl::Algorithm& inner_;
  fl::Federation& fed_;
};

struct Trace {
  std::array<std::uint32_t, kRounds> crc{};
  fl::RunHistory history;
};

/// Runs kRounds sync rounds one at a time, taking the CRC32 of the canonical
/// checkpoint image after each.
Trace run_trace(fl::Algorithm& algo, fl::Federation& fed) {
  Trace trace;
  for (std::size_t t = 0; t < kRounds; ++t) {
    fl::RunOptions options;
    options.start_round = t;
    options.rounds = t + 1;
    const fl::RunHistory step = fl::run_federation(algo, fed, options);
    trace.history.rounds.insert(trace.history.rounds.end(),
                                step.rounds.begin(), step.rounds.end());
    WeightsImage weights(algo, fed);
    fl::Algorithm& imaged = algo.supports_resume() ? algo : weights;
    trace.crc[t] = comm::crc32(
        fl::encode_federation_checkpoint(imaged, fed, t + 1, trace.history));
  }
  exec::set_num_threads(1);
  return trace;
}

struct Golden {
  const char* algorithm;
  std::array<std::uint32_t, kRounds> crc;
};

// Recorded from the two-executor round pipeline (sync rounds on their own
// barrier body) before sync moved onto the event engine.
const Golden kGolden[] = {
    {"FedAvg", {0xdcc038e1u, 0xbb0a006cu, 0x4644d891u}},
    {"FedProx", {0x47eff219u, 0x04c03b1cu, 0xe8d24284u}},
    {"FedMD", {0x60181cf8u, 0x627f1af9u, 0x5455319eu}},
    {"DS-FL", {0x92ed4195u, 0xac70b389u, 0x3acfdaabu}},
    {"FedDF", {0x9b1d9694u, 0xa437663cu, 0x0f2f7b46u}},
    {"FedET", {0x99efa967u, 0xb99ed04cu, 0xac76ad8eu}},
    {"FedProto", {0x4e17501au, 0xddbb89b1u, 0x3d908912u}},
    {"FedPKD", {0x7dff7adau, 0xdbf82191u, 0x58a81a16u}},
};

class SyncDiscipline : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SyncDiscipline, AllDriversMatchRecordedCheckpointCrcs) {
  const std::size_t lanes = GetParam();
  for (const Golden& golden : kGolden) {
    auto fed = resident_federation(lanes);
    auto algo = make_algorithm(golden.algorithm, *fed);
    const Trace trace = run_trace(*algo, *fed);
    for (std::size_t t = 0; t < kRounds; ++t) {
      EXPECT_EQ(trace.crc[t], golden.crc[t])
          << golden.algorithm << " round " << t << " at " << lanes
          << " lanes: 0x" << std::hex << trace.crc[t];
    }
    // The scenario must actually exercise the discipline it pins.
    std::size_t stragglers = 0;
    std::size_t excluded = 0;
    for (const fl::RoundMetrics& m : trace.history.rounds) {
      ASSERT_TRUE(m.fault_stats.has_value());
      stragglers += m.fault_stats->stragglers_excluded;
      excluded += m.fault_stats->anomaly_excluded;
    }
    EXPECT_GT(stragglers, 0u) << golden.algorithm;
    EXPECT_GT(excluded, 0u) << golden.algorithm;
  }
}

TEST_P(SyncDiscipline, VirtualPoolFedAvgMatchesRecordedPoolCounters) {
  const std::size_t lanes = GetParam();
  struct PoolGolden {
    std::size_t hits, misses, hydrations;
  };
  const std::array<PoolGolden, kRounds> kPool = {{{6, 7, 7}, {14, 4, 4},
                                                  {15, 3, 3}}};
  const std::array<std::uint32_t, kRounds> kCrc = {0x21d4c572u, 0x2cc612a8u,
                                                   0x75f32f82u};

  auto fed = virtual_federation(lanes);
  auto algo = make_algorithm("FedAvg", *fed);
  const Trace trace = run_trace(*algo, *fed);
  for (std::size_t t = 0; t < kRounds; ++t) {
    const fl::RoundMetrics& m = trace.history.rounds[t];
    ASSERT_TRUE(m.pool_stats.has_value()) << "round " << t;
    EXPECT_EQ(m.pool_stats->hits, kPool[t].hits) << "round " << t;
    EXPECT_EQ(m.pool_stats->misses, kPool[t].misses) << "round " << t;
    EXPECT_EQ(m.pool_stats->hydrations, kPool[t].hydrations) << "round " << t;
    EXPECT_EQ(trace.crc[t], kCrc[t])
        << "round " << t << " at " << lanes << " lanes: 0x" << std::hex
        << trace.crc[t];
  }
}

INSTANTIATE_TEST_SUITE_P(Golden, SyncDiscipline, ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "Lanes" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace fedpkd
