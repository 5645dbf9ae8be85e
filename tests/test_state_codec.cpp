// Tests for the checkpoint state codec: every state decoder must turn
// hostile counts and lengths into std::runtime_error (never length_error or
// bad_alloc); golden CRC32s pin the checkpoint sections no other golden
// fills (the free-rider replay cache, an async FedPKD run cut mid-buffer)
// and the model checkpoint file; and a seeded mutation sweep feeds truncated,
// bit-flipped and overwritten checkpoints to decode_federation_checkpoint,
// which may only succeed or throw std::runtime_error.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "fedpkd/comm/frame.hpp"
#include "fedpkd/comm/validate.hpp"
#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/robust/attack.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd {
namespace {

template <class Record>
std::vector<std::byte> save(Record& record) {
  std::vector<std::byte> out;
  auto writer = tensor::StateIo::writer(out);
  record.persist(writer);
  return out;
}

template <class Record>
void load(Record& record, std::span<const std::byte> bytes) {
  auto reader = tensor::StateIo::reader(bytes);
  record.persist(reader);
}

/// Runs `fn` and fails unless it throws std::runtime_error. Any other
/// exception — std::length_error and std::bad_alloc in particular — fails
/// with its type and message.
template <class Fn>
void expect_runtime_error(Fn&& fn, const std::string& what) {
  try {
    fn();
  } catch (const std::runtime_error&) {
    return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << typeid(e).name() << " (" << e.what()
                  << "), not std::runtime_error";
    return;
  }
  ADD_FAILURE() << what << ": did not throw";
}

void patch_u32(std::vector<std::byte>& bytes, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes.at(at + i) = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

void patch_u64(std::vector<std::byte>& bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes.at(at + i) = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

// ------------------------------------------------------------ fixtures -----

/// The 4-client fixture of test_async, at one lane.
std::unique_ptr<fl::Federation> small_federation() {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(31));
  const auto bundle = task.make_bundle(120, 90, 60);
  fl::FederationConfig config;
  config.num_clients = 4;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 30;
  config.seed = 33;
  config.num_threads = 1;
  return fl::build_federation(bundle, fl::PartitionSpec::dirichlet(0.3),
                              config);
}

/// Sync FedAvg with node 2 free-riding from round 0: after two rounds the
/// attack injector's replay cache holds node 2's previous bundle.
struct FreeRiderRun {
  static constexpr std::size_t kRounds = 2;

  static void configure(fl::Federation& fed) {
    robust::AttackPlan attacks;
    attacks.seed = 0xf4ee;
    attacks.adversaries = {{2, robust::AttackType::kFreeRider, 0.0}};
    fed.set_attack_plan(attacks);
  }
  static std::unique_ptr<fl::Algorithm> algorithm(fl::Federation& fed) {
    return std::make_unique<fl::FedAvg>(
        fed, fl::FedAvg::Options{.local_epochs = 1, .proximal_mu = {}});
  }
};

/// Buffered-async FedPKD cut mid-buffer: extreme stragglers keep uploads in
/// flight across wake slices and buffer_k = 3 against two fast clients
/// leaves a partial aggregation buffer at the round boundary (the fixture of
/// test_async's mid-buffer crash-resume).
struct AsyncFedPkdRun {
  static constexpr std::size_t kRounds = 2;

  static void configure(fl::Federation& fed) {
    comm::FaultPlan plan;
    plan.seed = 0xb0f5;
    plan.latency_ms = 1.0;
    plan.jitter_ms = 0.5;
    plan.max_retries = 3;
    plan.stragglers = {{1, 150.0}, {2, 250.0}};
    plan.crashes = {{4, comm::RoundStage::kUpload, 0}};
    fed.channel.set_fault_plan(plan);
    fed.policy.mode = fl::RoundMode::kAsync;
    fed.policy.buffer_k = 3;
    fed.policy.staleness_beta = 0.5;
    fed.policy.wake_interval_ms = 100.0;
  }
  static std::unique_ptr<fl::Algorithm> algorithm(fl::Federation& fed) {
    core::FedPkd::Options o;
    o.local_epochs = 1;
    o.public_epochs = 1;
    o.server_epochs = 1;
    o.server_arch = "resmlp11";
    return std::make_unique<core::FedPkd>(fed, o);
  }
};

/// A configured federation plus its algorithm, fresh or after the run.
struct Instance {
  std::unique_ptr<fl::Federation> fed;
  std::unique_ptr<fl::Algorithm> algo;
};

template <class Run>
Instance fresh_instance() {
  Instance s;
  s.fed = small_federation();
  Run::configure(*s.fed);
  s.algo = Run::algorithm(*s.fed);
  return s;
}

/// A finished run and its canonical checkpoint image.
struct Recorded {
  Instance run;
  fl::RunHistory history;
  std::vector<std::byte> payload;
};

template <class Run>
const Recorded& recorded() {
  static const Recorded r = [] {
    Recorded out;
    out.run = fresh_instance<Run>();
    fl::RunOptions options;
    options.rounds = Run::kRounds;
    out.history =
        fl::run_federation(*out.run.algo, *out.run.fed, options);
    out.payload = fl::encode_federation_checkpoint(
        *out.run.algo, *out.run.fed, Run::kRounds, out.history);
    return out;
  }();
  return r;
}

/// Where FedPkd's state blob keeps its cross-round maps: the number of
/// clients with received prototypes, and the position and value of the
/// filtered-subset id count (the blob's last field before the ids).
struct FedPkdBlobLayout {
  std::size_t received = 0;
  std::size_t selected_count_at = 0;
  std::size_t selected = 0;
};

void skip_prototype_set(std::span<const std::byte> blob, std::size_t& offset) {
  const bool has = blob[offset++] != std::byte{0};
  if (!has) return;
  tensor::get_u64(blob, offset);  // num_classes
  tensor::get_u64(blob, offset);  // feature_dim
  offset += static_cast<std::size_t>(tensor::get_u64(blob, offset));
}

FedPkdBlobLayout walk_fedpkd_blob(std::span<const std::byte> blob) {
  FedPkdBlobLayout layout;
  std::size_t offset = 0;
  tensor::decode_tensor(blob, offset);  // server weights
  tensor::get_rng(blob, offset);        // server RNG
  tensor::get_f32(blob, offset);        // last keep fraction
  skip_prototype_set(blob, offset);     // global prototypes
  layout.received = static_cast<std::size_t>(tensor::get_u64(blob, offset));
  for (std::size_t c = 0; c < layout.received; ++c) {
    tensor::get_u32(blob, offset);
    skip_prototype_set(blob, offset);
  }
  layout.selected_count_at = offset;
  layout.selected = static_cast<std::size_t>(tensor::get_u64(blob, offset));
  EXPECT_EQ(offset + 4 * layout.selected, blob.size());
  return layout;
}

// ------------------------------------------------------- hostile counts ----

TEST(HostileCount, WeightNormTrackerHugeCount) {
  for (const std::uint64_t count :
       {~std::uint64_t{0}, std::uint64_t{1} << 40}) {
    std::vector<std::byte> blob(8 + 3 * 8);
    patch_u64(blob, 0, count);
    comm::WeightNormTracker tracker;
    expect_runtime_error([&] { load(tracker, blob); },
                         "WeightNormTracker count " + std::to_string(count));
  }
}

TEST(HostileCount, FaultInjectorOfflineCount) {
  comm::FaultInjector fresh;
  std::vector<std::byte> blob = save(fresh);
  // Three serialized RNGs (4 lanes + cached normal + flag = 41 bytes each),
  // then the u32 offline count.
  constexpr std::size_t kOfflineCountAt = 3 * 41;
  patch_u32(blob, kOfflineCountAt, 0xFFFFFFFFu);
  comm::FaultInjector restored;
  expect_runtime_error([&] { load(restored, blob); },
                       "FaultInjector offline count 0xFFFFFFFF");
}

TEST(HostileCount, AttackInjectorPartCount) {
  // One replay-cache node (u32 count, u32 node) claiming 0xFFFFFFFF parts.
  std::vector<std::byte> blob(12 + 16);
  patch_u32(blob, 0, 1);
  patch_u32(blob, 4, 2);
  patch_u32(blob, 8, 0xFFFFFFFFu);
  robust::AttackInjector injector;
  expect_runtime_error([&] { load(injector, blob); },
                       "AttackInjector part count 0xFFFFFFFF");
}

TEST(HostileCount, AttackInjectorPartLengthWraps) {
  // One node, one part whose u64 length makes offset + len wrap to zero.
  std::vector<std::byte> blob(20 + 16);
  patch_u32(blob, 0, 1);
  patch_u32(blob, 4, 2);
  patch_u32(blob, 8, 1);
  patch_u64(blob, 12, ~std::uint64_t{0} - 19);  // 2^64 - 20
  robust::AttackInjector injector;
  expect_runtime_error([&] { load(injector, blob); },
                       "AttackInjector part length 2^64-20");
}

TEST(HostileCount, FedPkdSelectedIdCount) {
  const Recorded& r = recorded<AsyncFedPkdRun>();
  std::vector<std::byte> blob = save(*r.run.algo);
  const FedPkdBlobLayout layout = walk_fedpkd_blob(blob);
  patch_u64(blob, layout.selected_count_at, std::uint64_t{1} << 62);
  Instance target = fresh_instance<AsyncFedPkdRun>();
  expect_runtime_error([&] { load(*target.algo, blob); },
                       "FedPkd selected-id count 2^62");
}

// ------------------------------------------------------------- goldens -----
// Recorded from the per-record save_state/load_state codecs that preceded
// the shared state codec; the checkpoint bytes must not move by one bit.

TEST(StateGolden, FreeRiderReplayCacheCheckpoint) {
  const Recorded& r = recorded<FreeRiderRun>();
  // The pinned image must carry a non-empty replay cache: its u32 node count.
  const std::vector<std::byte> cache = save(r.run.fed->attacks);
  std::size_t offset = 0;
  ASSERT_GT(tensor::get_u32(cache, offset), 0u) << "replay cache is empty";
  EXPECT_EQ(r.payload.size(), 366258u);
  EXPECT_EQ(comm::crc32(r.payload), 0x20b9cc93u)
      << "0x" << std::hex << comm::crc32(r.payload);
}

TEST(StateGolden, AsyncFedPkdMidBufferCheckpoint) {
  const Recorded& r = recorded<AsyncFedPkdRun>();
  ASSERT_GT(r.run.fed->engine.buffer.size(), 0u) << "buffer is empty";
  ASSERT_GT(r.run.fed->engine.in_flight.size(), 0u) << "nothing in flight";
  const FedPkdBlobLayout layout = walk_fedpkd_blob(save(*r.run.algo));
  ASSERT_GT(layout.received, 0u) << "no client received prototypes";
  ASSERT_GT(layout.selected, 0u) << "no filtered subset selected";
  EXPECT_EQ(r.payload.size(), 321335u);
  EXPECT_EQ(comm::crc32(r.payload), 0x936f4407u)
      << "0x" << std::hex << comm::crc32(r.payload);
}

TEST(StateGolden, ModelCheckpointFileBytes) {
  tensor::Rng rng(0x5eed);
  nn::Classifier model = nn::make_classifier("resmlp11", 32, 10, rng);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "fedpkd_state_codec_model.ckpt";
  fl::save_checkpoint(model, path);
  const std::vector<std::byte> bytes = fl::durable::read_file_bytes(path);
  std::filesystem::remove(path);
  EXPECT_EQ(bytes.size(), 60841u);
  EXPECT_EQ(comm::crc32(bytes), 0xc85ae1efu)
      << "0x" << std::hex << comm::crc32(bytes);
}

// ------------------------------------------------------------ mutations ----

/// Byte ranges holding raw f32 tensor elements (found by scanning for the
/// 'FPKT' tensor magic and decoding each header). Mutations there only
/// change a weight value, so most mutants aim at the bytes outside them:
/// the counts, lengths, flags and ids the decoders must validate.
std::vector<bool> structural_mask(std::span<const std::byte> payload) {
  std::vector<bool> structural(payload.size(), true);
  constexpr std::uint32_t kTensorMagic = 0x464b5054u;  // 'FPKT'
  for (std::size_t i = 0; i + 4 <= payload.size(); ++i) {
    std::size_t end = i;
    if (tensor::get_u32(payload, end) != kTensorMagic) continue;
    end = i;
    try {
      const std::size_t numel = tensor::decode_tensor(payload, end).numel();
      const auto first = static_cast<std::ptrdiff_t>(end - 4 * numel);
      std::fill(structural.begin() + first,
                structural.begin() + static_cast<std::ptrdiff_t>(end), false);
      i = end - 1;
    } catch (const tensor::DecodeError&) {
      // The magic's bytes occurred inside other data.
    }
  }
  return structural;
}

/// Decodes `mutant` on a freshly built federation; returns a failure message
/// when the decoder throws anything but std::runtime_error.
template <class Run>
std::string decode_outcome(std::span<const std::byte> mutant) {
  Instance target = fresh_instance<Run>();
  try {
    fl::decode_federation_checkpoint(mutant, *target.algo, *target.fed,
                                     "mutant");
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + " (" + e.what() + ")";
  }
  return {};
}

/// Applies a fixed-seed sequence of mutations to `payload`: truncation at a
/// random length, a random bit flip, and an aligned 4- or 8-byte window set
/// to all-ones or zero. Three of four positions are drawn from the
/// structural bytes, one from the whole payload.
template <class Run>
void sweep_mutations(const std::vector<std::byte>& payload, std::uint64_t seed,
                     std::size_t per_kind) {
  const std::vector<bool> structural = structural_mask(payload);
  std::vector<std::size_t> skeleton;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (structural[i]) skeleton.push_back(i);
  }
  ASSERT_FALSE(skeleton.empty());
  std::mt19937_64 dice(seed);
  const auto position = [&]() -> std::size_t {
    const std::uint64_t roll = dice();
    if (roll % 4 != 0) return skeleton[(roll >> 2) % skeleton.size()];
    return static_cast<std::size_t>((roll >> 2) % payload.size());
  };
  std::size_t failures = 0;
  const auto check = [&](const std::vector<std::byte>& mutant,
                         const std::string& what) {
    const std::string outcome = decode_outcome<Run>(mutant);
    if (!outcome.empty() && ++failures <= 8) {
      ADD_FAILURE() << what << ": " << outcome;
    }
  };
  for (std::size_t k = 0; k < per_kind; ++k) {
    const std::size_t cut = position();
    check({payload.begin(), payload.begin() + static_cast<std::ptrdiff_t>(cut)},
          "truncated at " + std::to_string(cut));

    std::vector<std::byte> flipped = payload;
    const std::size_t at = position();
    const unsigned bit = static_cast<unsigned>(dice() % 8);
    flipped[at] ^= static_cast<std::byte>(1u << bit);
    check(flipped, "bit " + std::to_string(bit) + " of byte " +
                       std::to_string(at) + " flipped");

    std::vector<std::byte> window = payload;
    const std::size_t width = dice() % 2 == 0 ? 4 : 8;
    const std::size_t start = position() / width * width;
    const std::byte fill = dice() % 2 == 0 ? std::byte{0xff} : std::byte{0};
    const std::size_t end = std::min(start + width, window.size());
    for (std::size_t i = start; i < end; ++i) window[i] = fill;
    check(window, std::to_string(width) + "-byte window at " +
                      std::to_string(start) + " set to " +
                      (fill == std::byte{0} ? "zero" : "ones"));
  }
  EXPECT_EQ(failures, 0u);
}

TEST(StateMutation, FreeRiderCheckpointDecodesOrThrowsRuntimeError) {
  sweep_mutations<FreeRiderRun>(recorded<FreeRiderRun>().payload, 0x5eed01,
                                100);
}

TEST(StateMutation, AsyncFedPkdCheckpointDecodesOrThrowsRuntimeError) {
  sweep_mutations<AsyncFedPkdRun>(recorded<AsyncFedPkdRun>().payload,
                                  0x5eed02, 100);
}

}  // namespace
}  // namespace fedpkd
