// Tests for the fault-tolerance layer end to end: every algorithm surviving a
// seeded fault matrix (drops + corruption + stragglers + a mid-round crash)
// bitwise-identically at 1 and 4 threads, round deadlines and quorum, the
// poisoned-update defense excluding a NaN client from aggregation, and
// crash-resume restoring a federation checkpoint bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <variant>
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

using tensor::Rng;
using tensor::Tensor;

std::uint32_t float_bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

const std::vector<std::string> kAllAlgorithms = {
    "FedAvg", "FedProx", "FedMD", "DS-FL",
    "FedDF",  "FedET",   "FedProto", "FedPKD"};

/// 4 homogeneous resmlp11 clients on a small synthetic task — big enough for
/// 2 stragglers plus a crashed client to leave a working majority.
std::unique_ptr<fl::Federation> faulted_federation(std::size_t threads) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(31));
  const auto bundle = task.make_bundle(120, 90, 60);
  fl::FederationConfig config;
  config.num_clients = 4;
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

/// The seeded fault matrix of the acceptance scenario: 20% frame loss, 5%
/// corruption, simulated link latency, two stragglers, and one scripted
/// mid-round crash.
comm::FaultPlan matrix_plan() {
  comm::FaultPlan plan;
  plan.seed = 0xfa01701;
  plan.drop_probability = 0.2;
  plan.corrupt_probability = 0.05;
  plan.latency_ms = 1.0;
  plan.jitter_ms = 0.5;
  plan.max_retries = 3;
  plan.stragglers = {{1, 3.0}, {2, 5.0}};
  plan.crashes = {{5, comm::RoundStage::kUpload, 0}};
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
  EXPECT_DOUBLE_EQ(a.max_upload_latency_ms, b.max_upload_latency_ms) << what;
}

// --------------------------------------------------------- fault matrix -----

/// Exercised with FEDPKD_TEST_THREADS / FEDPKD_TEST_DROP /
/// FEDPKD_TEST_CORRUPT / FEDPKD_TEST_STRAGGLERS / FEDPKD_TEST_CRASH by the CI
/// fault-matrix job; the defaults are the acceptance scenario.
TEST(FaultMatrix, AllAlgorithmsDeterministicAcrossThreadsUnderSeededFaults) {
  std::size_t threads = 4;
  comm::FaultPlan plan = matrix_plan();
  if (const char* env = std::getenv("FEDPKD_TEST_THREADS")) {
    threads = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  if (const char* env = std::getenv("FEDPKD_TEST_DROP")) {
    plan.drop_probability = std::strtod(env, nullptr);
  }
  if (const char* env = std::getenv("FEDPKD_TEST_CORRUPT")) {
    plan.corrupt_probability = std::strtod(env, nullptr);
  }
  if (const char* env = std::getenv("FEDPKD_TEST_STRAGGLERS")) {
    const auto n = std::strtoul(env, nullptr, 10);
    plan.stragglers.clear();
    for (unsigned long i = 0; i < n; ++i) {
      plan.stragglers.emplace_back(static_cast<comm::NodeId>(i + 1),
                                   3.0 + 2.0 * static_cast<double>(i));
    }
  }
  if (const char* env = std::getenv("FEDPKD_TEST_CRASH")) {
    if (std::strtoul(env, nullptr, 10) == 0) plan.crashes.clear();
  }
  constexpr std::size_t kRounds = 10;

  for (const std::string& name : kAllAlgorithms) {
    const auto run = [&](std::size_t run_threads) {
      auto fed = faulted_federation(run_threads);
      fed->channel.set_fault_plan(plan);
      auto algo = make_algorithm(name, *fed);
      fl::RunOptions opts;
      opts.rounds = kRounds;
      fl::RunHistory history = fl::run_federation(*algo, *fed, opts);
      exec::set_num_threads(1);
      return history;
    };
    const fl::RunHistory serial = run(1);
    const fl::RunHistory parallel = run(threads);

    ASSERT_EQ(serial.rounds.size(), kRounds) << name;
    ASSERT_EQ(parallel.rounds.size(), kRounds) << name;
    fl::RoundFaultStats totals;
    for (std::size_t t = 0; t < kRounds; ++t) {
      const fl::RoundMetrics& a = serial.rounds[t];
      const fl::RoundMetrics& b = parallel.rounds[t];
      const std::string what = name + " round " + std::to_string(t);

      // Every accuracy stays finite under faults...
      ASSERT_EQ(a.server_accuracy.has_value(), b.server_accuracy.has_value())
          << what;
      if (a.server_accuracy) {
        EXPECT_TRUE(std::isfinite(*a.server_accuracy)) << what;
        // ...and the parallel run reproduces the serial one bit for bit.
        EXPECT_EQ(float_bits(*a.server_accuracy), float_bits(*b.server_accuracy))
            << what;
      }
      ASSERT_EQ(a.client_accuracy.size(), b.client_accuracy.size()) << what;
      for (std::size_t c = 0; c < a.client_accuracy.size(); ++c) {
        EXPECT_TRUE(std::isfinite(a.client_accuracy[c])) << what;
        EXPECT_EQ(float_bits(a.client_accuracy[c]),
                  float_bits(b.client_accuracy[c]))
            << what << " client " << c;
      }
      EXPECT_EQ(a.cumulative_bytes, b.cumulative_bytes) << what;

      // The robustness counters are part of the determinism contract too.
      ASSERT_TRUE(a.fault_stats.has_value()) << what;
      ASSERT_TRUE(b.fault_stats.has_value()) << what;
      expect_same_faults(*a.fault_stats, *b.fault_stats, what);
      totals += *a.fault_stats;
    }
    // The fault schedule actually fired: frames were lost and retried, and
    // the scripted crash (when enabled) took exactly one client down.
    EXPECT_GT(totals.frames_dropped, 0u) << name;
    EXPECT_GT(totals.retries, 0u) << name;
    EXPECT_EQ(totals.clients_crashed, plan.crashes.size()) << name;
  }
}

// ------------------------------------------------- deadlines and quorum -----

TEST(RoundDiscipline, StragglerPastDeadlineIsExcludedButRoundProceeds) {
  auto fed = faulted_federation(1);
  comm::FaultPlan plan;
  plan.latency_ms = 10.0;
  plan.stragglers = {{0, 100.0}};  // 1000 ms per upload frame
  fed->channel.set_fault_plan(plan);
  fed->policy.upload_deadline_ms = 500.0;

  fl::FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  const Tensor before = algo.server_model()->flat_weights();
  fl::RunOptions opts;
  opts.rounds = 1;
  fl::run_federation(algo, *fed, opts);

  const fl::RoundFaultStats* stats = algo.last_fault_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->stragglers_excluded, 1u);
  EXPECT_EQ(stats->quorum_misses, 0u);
  // The slowest *accepted* upload is a non-straggler's 10 ms frame.
  EXPECT_DOUBLE_EQ(stats->max_upload_latency_ms, 10.0);
  // The round still aggregated the three punctual clients.
  EXPECT_GT(tensor::max_abs_difference(algo.server_model()->flat_weights(),
                                       before),
            0.0f);
  // The straggler's frames did cross the wire, so its bytes were charged.
  EXPECT_GT(fed->meter.total_for_client(0), 0u);
}

TEST(RoundDiscipline, BelowQuorumRoundIsSkippedGracefully) {
  auto fed = faulted_federation(1);
  comm::FaultPlan plan;
  plan.crashes = {{0, comm::RoundStage::kUpload, 2}};
  fed->channel.set_fault_plan(plan);
  fed->policy.quorum_fraction = 1.0;  // all four participants required

  fl::FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  const Tensor before = algo.server_model()->flat_weights();
  fl::RunOptions opts;
  opts.rounds = 1;
  ASSERT_NO_THROW(fl::run_federation(algo, *fed, opts));

  const fl::RoundFaultStats* stats = algo.last_fault_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->clients_crashed, 1u);
  EXPECT_EQ(stats->quorum_misses, 1u);
  // Below quorum the server step never ran: the global model is untouched.
  EXPECT_EQ(tensor::max_abs_difference(algo.server_model()->flat_weights(),
                                       before),
            0.0f);
}

// ------------------------------------------------ poisoned-update defense ---

/// FedAvg whose client 0 uploads a NaN-poisoned weight vector.
struct PoisonedFedAvg : fl::FedAvg {
  using FedAvg::FedAvg;
  fl::PayloadBundle make_upload(fl::RoundContext& ctx, std::size_t i,
                                fl::Client& client) override {
    fl::PayloadBundle bundle = FedAvg::make_upload(ctx, i, client);
    if (client.id == 0) {
      std::get<comm::WeightsPayload>(bundle.parts[0]).flat[0] =
          std::numeric_limits<float>::quiet_NaN();
    }
    return bundle;
  }
};

TEST(Poisoning, NanClientIsRejectedAndAggregateMatchesCleanClientsOnly) {
  // Poisoned run: client 0 uploads NaN weights; validation must reject them.
  auto poisoned_fed = faulted_federation(1);
  PoisonedFedAvg poisoned(*poisoned_fed,
                          {.local_epochs = 1, .proximal_mu = {}});
  fl::RunOptions opts;
  opts.rounds = 1;
  fl::run_federation(poisoned, *poisoned_fed, opts);

  const fl::RoundFaultStats* stats = poisoned.last_fault_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->rejected_contributions, 1u);
  EXPECT_FALSE(
      tensor::has_non_finite(poisoned.server_model()->flat_weights()));

  // Clean-clients-only run: client 0 simply never uploads (offline). The
  // surviving contributions are identical, so the aggregate must be too.
  auto clean_fed = faulted_federation(1);
  clean_fed->channel.set_node_offline(0, true);
  fl::FedAvg clean(*clean_fed, {.local_epochs = 1, .proximal_mu = {}});
  fl::run_federation(clean, *clean_fed, opts);

  const fl::RoundFaultStats* clean_stats = clean.last_fault_stats();
  ASSERT_NE(clean_stats, nullptr);
  EXPECT_EQ(clean_stats->rejected_contributions, 0u);
  EXPECT_EQ(tensor::max_abs_difference(poisoned.server_model()->flat_weights(),
                                       clean.server_model()->flat_weights()),
            0.0f);
}

// ------------------------------------------------------------ crash-resume --

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

void expect_bitwise_resume(const std::string& name) {
  const comm::FaultPlan plan = [] {
    comm::FaultPlan p = matrix_plan();
    // An extra early crash so the checkpoint carries a non-trivial crash
    // cursor and offline set that resume must not re-fire.
    p.crashes.push_back({1, comm::RoundStage::kDownload, 3});
    return p;
  }();
  constexpr std::size_t kTotalRounds = 6;
  constexpr std::size_t kCut = 3;
  fl::RunOptions base;
  base.rounds = kTotalRounds;

  // Reference: the uninterrupted run.
  auto straight_fed = faulted_federation(1);
  straight_fed->channel.set_fault_plan(plan);
  auto straight = make_algorithm(name, *straight_fed);
  const fl::RunHistory want = fl::run_federation(*straight, *straight_fed, base);

  // Interrupted run: checkpoint after round kCut, then "crash".
  const ScopedDir dir("fedpkd_test_faults_" + name);
  fl::durable::GenerationChain chain(dir.path / "run.ckpt");
  auto first_fed = faulted_federation(1);
  first_fed->channel.set_fault_plan(plan);
  auto first = make_algorithm(name, *first_fed);
  fl::RunOptions until_cut = base;
  until_cut.rounds = kCut;
  until_cut.checkpoint_every = kCut;
  until_cut.checkpoint_chain = &chain;
  fl::run_federation(*first, *first_fed, until_cut);
  ASSERT_TRUE(std::filesystem::exists(chain.generation_path(1))) << name;

  // Resume: rebuild the identical configuration, restore, run the rest.
  auto resumed_fed = faulted_federation(1);
  resumed_fed->channel.set_fault_plan(plan);
  auto resumed = make_algorithm(name, *resumed_fed);
  const auto loaded =
      fl::load_federation_checkpoint(chain, *resumed, *resumed_fed);
  ASSERT_TRUE(loaded.has_value()) << name;
  const fl::FederationResume& state = loaded->resume;
  ASSERT_EQ(state.next_round, kCut) << name;
  ASSERT_EQ(state.history.rounds.size(), kCut) << name;
  fl::RunOptions rest = base;
  rest.start_round = state.next_round;
  const fl::RunHistory tail = fl::run_federation(*resumed, *resumed_fed, rest);

  // Stitch checkpointed + resumed rounds and compare bitwise to the
  // uninterrupted run: accuracies, traffic, and fault counters.
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
  }

  // The models themselves ended up bit-identical, not just the metrics.
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

TEST(CrashResume, FedAvgResumesBitwiseIdentically) {
  expect_bitwise_resume("FedAvg");
}

TEST(CrashResume, FedPkdResumesBitwiseIdentically) {
  expect_bitwise_resume("FedPKD");
}

TEST(CrashResume, CheckpointRejectsMismatchedConfiguration) {
  const ScopedDir dir("fedpkd_test_faults_mismatch");
  fl::durable::GenerationChain chain(dir.path / "run.ckpt");
  auto fed = faulted_federation(1);
  fl::FedAvg algo(*fed, {.local_epochs = 1, .proximal_mu = {}});
  fl::RunOptions opts;
  opts.rounds = 1;
  opts.checkpoint_every = 1;
  opts.checkpoint_chain = &chain;
  fl::run_federation(algo, *fed, opts);

  // Wrong algorithm: the generation verifies but does not decode.
  auto other_fed = faulted_federation(1);
  auto other = make_algorithm("FedPKD", *other_fed);
  EXPECT_THROW(fl::load_federation_checkpoint(chain, *other, *other_fed),
               std::runtime_error);

  // An algorithm without resume support cannot write one.
  auto no_resume_fed = faulted_federation(1);
  auto no_resume = make_algorithm("FedMD", *no_resume_fed);
  EXPECT_THROW(fl::save_federation_checkpoint(chain, *no_resume,
                                              *no_resume_fed, 1, {}),
               std::invalid_argument);

  // Truncated payload. (Torn and bit-flipped files never reach the decoder:
  // the chain's footer check rejects them, swept in test_durable.)
  const auto loaded = chain.load();
  ASSERT_TRUE(loaded.has_value());
  const std::vector<std::byte>& payload = loaded->payload;
  auto trunc_fed = faulted_federation(1);
  fl::FedAvg trunc_algo(*trunc_fed, {.local_epochs = 1, .proximal_mu = {}});
  EXPECT_THROW(fl::decode_federation_checkpoint(
                   std::span(payload).first(payload.size() / 2), trunc_algo,
                   *trunc_fed, "truncated"),
               std::runtime_error);

  // Bad magic.
  std::vector<std::byte> bad_magic = payload;
  bad_magic[0] = std::byte{'X'};
  EXPECT_THROW(fl::decode_federation_checkpoint(bad_magic, trunc_algo,
                                                *trunc_fed, "bad magic"),
               std::runtime_error);
}

}  // namespace
}  // namespace fedpkd
