#pragma once

#include <cstdint>

#include "fedpkd/data/dataset.hpp"
#include "fedpkd/tensor/rng.hpp"

namespace fedpkd::data {

/// Synthetic stand-in for CIFAR-10 / CIFAR-100 (see DESIGN.md §1).
///
/// Generative process (fully deterministic given `seed`):
///   1. Each class owns `modes_per_class` latent centers drawn from
///      N(0, separation^2 I) in R^latent_dim — multi-modal classes make the
///      task non-linearly separable, so small client models underfit and
///      ensembles/distillation have headroom, as on CIFAR.
///   2. A sample picks one of its class's modes uniformly and adds
///      N(0, noise^2 I) latent jitter.
///   3. The latent point passes through a fixed random two-layer tanh warp
///      into R^input_dim, plus small observation noise.
///
/// All splits (train pool, global test, public) come from the same process,
/// matching the paper's protocol of carving the public dataset out of the
/// same distribution as training data.
struct SyntheticVisionConfig {
  std::size_t num_classes = 10;
  std::size_t input_dim = 32;
  std::size_t latent_dim = 8;
  std::size_t modes_per_class = 3;
  float separation = 2.0f;   // spread of latent class centers
  float latent_noise = 1.2f; // within-mode latent jitter
  float obs_noise = 0.05f;   // additive noise after the warp
  std::uint64_t seed = 42;

  /// "Synth-10" — CIFAR-10 stand-in.
  static SyntheticVisionConfig synth10(std::uint64_t seed = 42);
  /// "Synth-100" — CIFAR-100 stand-in (more classes, tighter spacing).
  static SyntheticVisionConfig synth100(std::uint64_t seed = 42);
};

/// Train/test/public splits of one synthetic task.
struct FederatedDataBundle {
  Dataset train_pool;   // partitioned across clients by partition.hpp
  Dataset test_global;  // server-side generalization metric (S_acc)
  Dataset public_data;  // unlabeled in-protocol; labels kept for evaluation
};

/// A frozen sampler for one synthetic task: holds the class/mode geometry and
/// warp weights and can generate arbitrarily many i.i.d. samples.
class SyntheticVision {
 public:
  explicit SyntheticVision(SyntheticVisionConfig config);

  /// Draws `n` fresh labeled samples (label-balanced up to rounding).
  Dataset sample(std::size_t n, tensor::Rng& rng) const;

  /// Draws `n` samples restricted to the given classes (balanced over them).
  Dataset sample_classes(std::size_t n, std::span<const int> classes,
                         tensor::Rng& rng) const;

  /// Standard experiment bundle with the given split sizes. Uses a dedicated
  /// RNG stream derived from the config seed, so bundles are reproducible
  /// regardless of what else the caller sampled.
  FederatedDataBundle make_bundle(std::size_t train_n, std::size_t test_n,
                                  std::size_t public_n) const;

  const SyntheticVisionConfig& config() const { return config_; }

 private:
  tensor::Tensor warp(const tensor::Tensor& latent, tensor::Rng& rng) const;

  SyntheticVisionConfig config_;
  tensor::Tensor mode_centers_;  // [num_classes * modes, latent_dim]
  tensor::Tensor w1_;            // [latent_dim, hidden]
  tensor::Tensor b1_;            // [hidden]
  tensor::Tensor w2_;            // [hidden, input_dim]
  tensor::Tensor b2_;            // [input_dim]
};

}  // namespace fedpkd::data
