// The durability acceptance sweep (DESIGN.md §15): for FedAvg and FedPKD in
// all three round modes, arm every registered crash point in throw mode, kill
// the run there, resume from the generation chain, and require the final
// federation state — encode_federation_checkpoint's canonical byte image,
// stitched history included — to be bitwise identical to the uninterrupted
// run. Plus the deep-fallback scenario: the two newest generations corrupted
// (bit flip + truncation) still recover bitwise from generation N-2.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/durable_io.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/federation.hpp"

namespace fedpkd {
namespace {

namespace durable = fl::durable;

constexpr std::size_t kRounds = 3;

/// Unique scratch directory per scenario, removed on scope exit.
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

/// Same small federation as the fault tests: 4 homogeneous resmlp11 clients.
/// Crash points fire on the serial control path between parallel stages, so
/// the sweep is lane-count-safe; the CI crash-matrix job re-runs it with
/// FEDPKD_TEST_THREADS=4 and the result must stay bitwise identical.
std::unique_ptr<fl::Federation> small_federation(fl::RoundMode mode) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(31));
  const auto bundle = task.make_bundle(120, 90, 60);
  fl::FederationConfig config;
  config.num_clients = 4;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 30;
  config.seed = 33;
  config.num_threads = 1;
  if (const char* env = std::getenv("FEDPKD_TEST_THREADS")) {
    config.num_threads =
        static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  auto fed = fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                                  config);
  fed->policy.mode = mode;
  if (mode == fl::RoundMode::kSemiSync) {
    fed->policy.upload_deadline_ms = 12.0;
  } else if (mode == fl::RoundMode::kAsync) {
    fed->policy.wake_interval_ms = 8.0;
    fed->policy.buffer_k = 2;
    fed->policy.staleness_beta = 0.5;
  }
  return fed;
}

std::unique_ptr<fl::Algorithm> make_algorithm(const std::string& name,
                                              fl::Federation& fed) {
  if (name == "FedAvg") {
    return std::make_unique<fl::FedAvg>(
        fed, fl::FedAvg::Options{.local_epochs = 1, .proximal_mu = {}});
  }
  core::FedPkd::Options o;
  o.local_epochs = 1;
  o.public_epochs = 1;
  o.server_epochs = 1;
  o.server_arch = "resmlp11";
  return std::make_unique<core::FedPkd>(fed, o);
}

/// Uninterrupted reference: the canonical final-state bytes for one
/// (algorithm, mode) cell, checkpointing through a chain exactly like the
/// crash runs so both sides exercise the identical code path.
std::vector<std::byte> reference_state(const std::string& algorithm,
                                       fl::RoundMode mode,
                                       const std::filesystem::path& dir) {
  auto fed = small_federation(mode);
  auto algo = make_algorithm(algorithm, *fed);
  durable::GenerationChain chain(dir / "ref.ckpt", 3);
  fl::RunOptions options;
  options.rounds = kRounds;
  options.checkpoint_every = 1;
  options.checkpoint_chain = &chain;
  const fl::RunHistory history = fl::run_federation(*algo, *fed, options);
  return fl::encode_federation_checkpoint(*algo, *fed, kRounds, history);
}

/// Crash the run at `point` (throw mode), then do exactly what the supervisor
/// does: rebuild the identically-configured federation + algorithm, load the
/// newest loadable generation (an empty chain restarts from scratch), run the
/// remaining rounds, and stitch the resumed history onto the checkpointed
/// prefix. Returns the final-state bytes and sets `fired` when the point
/// crashed the run. When the point never fires in this mode the run simply
/// completes — still a valid sweep cell for points outside the round engine.
std::vector<std::byte> crashed_and_recovered_state(const std::string& algorithm,
                                                   fl::RoundMode mode,
                                                   const std::string& point,
                                                   const std::filesystem::path& dir,
                                                   bool& fired) {
  fired = false;
  durable::GenerationChain chain(dir / "crash.ckpt", 3);
  fl::RunOptions options;
  options.rounds = kRounds;
  options.checkpoint_every = 1;
  options.checkpoint_chain = &chain;

  {
    auto fed = small_federation(mode);
    auto algo = make_algorithm(algorithm, *fed);
    // "@2": let the first hit pass so a committed generation usually exists,
    // covering resume-from-mid-run; points with a single hit (or none) in
    // this mode then crash on their last hit or complete uninterrupted.
    durable::arm_crash_point(point + "@2", durable::CrashAction::kThrow);
    try {
      const fl::RunHistory history = fl::run_federation(*algo, *fed, options);
      durable::disarm_crash_points();
      // Never fired in this mode: the uninterrupted result stands.
      return fl::encode_federation_checkpoint(*algo, *fed, kRounds, history);
    } catch (const durable::CrashPointError&) {
      // The fired point disarmed itself; fed/algo die with this scope, like
      // the killed process.
      fired = true;
    }
  }

  auto fed = small_federation(mode);
  auto algo = make_algorithm(algorithm, *fed);
  fl::RunHistory prior;
  fl::RunOptions tail = options;
  if (const auto resumed = fl::load_federation_checkpoint(chain, *algo, *fed)) {
    tail.start_round = resumed->resume.next_round;
    prior = resumed->resume.history;
  }
  fl::RunHistory stitched = fl::run_federation(*algo, *fed, tail);
  stitched.rounds.insert(stitched.rounds.begin(), prior.rounds.begin(),
                         prior.rounds.end());
  EXPECT_EQ(stitched.rounds.size(), kRounds) << point;
  return fl::encode_federation_checkpoint(*algo, *fed, kRounds, stitched);
}

class CrashSweep
    : public ::testing::TestWithParam<std::tuple<std::string, fl::RoundMode>> {
};

TEST_P(CrashSweep, EveryPointRecoversBitwise) {
  const auto& [algorithm, mode] = GetParam();
  const ScopedDir dir(std::string("fedpkd_sweep_") + algorithm + "_" +
                      fl::to_string(mode));
  const std::vector<std::byte> reference =
      reference_state(algorithm, mode, dir.path);
  for (const std::string& point : durable::crash_point_names()) {
    durable::disarm_crash_points();
    const ScopedDir run_dir(dir.path.filename().string() + "_" + point);
    bool fired = false;
    const std::vector<std::byte> recovered = crashed_and_recovered_state(
        algorithm, mode, point, run_dir.path, fired);
    EXPECT_EQ(recovered, reference)
        << algorithm << " × " << fl::to_string(mode) << " × " << point
        << ": recovered state differs from the uninterrupted run";
    // Every mode runs on the one round engine, so its round and flush
    // points must really crash the run, not complete it vacuously.
    if (point.starts_with("round:") || point.starts_with("engine:")) {
      EXPECT_TRUE(fired) << algorithm << " × " << fl::to_string(mode) << " × "
                         << point << ": crash point never fired";
    }
  }
  durable::disarm_crash_points();
}

INSTANTIATE_TEST_SUITE_P(
    Durability, CrashSweep,
    ::testing::Combine(::testing::Values(std::string("FedAvg"),
                                         std::string("FedPKD")),
                       ::testing::Values(fl::RoundMode::kSync,
                                         fl::RoundMode::kSemiSync,
                                         fl::RoundMode::kAsync)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::string(fl::to_string(std::get<1>(info.param)));
    });

/// The deep-fallback acceptance scenario: corrupt the two newest generations
/// (bit flip the newest, truncate the second newest) — load must walk back to
/// generation N-2 and the resumed run must still finish bitwise identical.
TEST(CrashSweep, TwoNewestGenerationsCorruptedRecoversFromThird) {
  const ScopedDir dir("fedpkd_sweep_fallback");

  auto fed = small_federation(fl::RoundMode::kSync);
  auto algo = make_algorithm("FedAvg", *fed);
  durable::GenerationChain chain(dir.path / "run.ckpt", 3);
  fl::RunOptions options;
  options.rounds = kRounds;
  options.checkpoint_every = 1;
  options.checkpoint_chain = &chain;
  const fl::RunHistory history = fl::run_federation(*algo, *fed, options);
  const std::vector<std::byte> reference =
      fl::encode_federation_checkpoint(*algo, *fed, kRounds, history);
  ASSERT_EQ(chain.latest_on_disk(), kRounds);

  // Bit-flip generation N, truncate generation N-1.
  auto newest = durable::read_file_bytes(chain.generation_path(kRounds));
  newest[newest.size() / 2] ^= std::byte{0x04};
  {
    std::ofstream out(chain.generation_path(kRounds),
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(newest.data()),
              static_cast<std::streamsize>(newest.size()));
  }
  std::filesystem::resize_file(
      chain.generation_path(kRounds - 1),
      std::filesystem::file_size(chain.generation_path(kRounds - 1)) / 2);

  auto fed2 = small_federation(fl::RoundMode::kSync);
  auto algo2 = make_algorithm("FedAvg", *fed2);
  const auto resumed = fl::load_federation_checkpoint(chain, *algo2, *fed2);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->generation, kRounds - 2);
  EXPECT_EQ(resumed->fallbacks, 2u);
  EXPECT_EQ(resumed->resume.next_round, kRounds - 2);

  fl::RunOptions tail = options;
  tail.start_round = resumed->resume.next_round;
  fl::RunHistory stitched = fl::run_federation(*algo2, *fed2, tail);
  stitched.rounds.insert(stitched.rounds.begin(),
                         resumed->resume.history.rounds.begin(),
                         resumed->resume.history.rounds.end());
  EXPECT_EQ(fl::encode_federation_checkpoint(*algo2, *fed2, kRounds, stitched),
            reference);
}

}  // namespace
}  // namespace fedpkd
