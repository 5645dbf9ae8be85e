#include "fedpkd/data/synthetic_vision.hpp"

#include <cmath>
#include <stdexcept>

#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::data {

using tensor::Rng;
using tensor::Tensor;

SyntheticVisionConfig SyntheticVisionConfig::synth10(std::uint64_t seed) {
  SyntheticVisionConfig c;
  c.num_classes = 10;
  c.seed = seed;
  return c;
}

SyntheticVisionConfig SyntheticVisionConfig::synth100(std::uint64_t seed) {
  SyntheticVisionConfig c;
  c.num_classes = 100;
  c.input_dim = 32;
  c.latent_dim = 10;
  c.modes_per_class = 1;
  c.separation = 1.2f;  // tighter packing: 100 classes is the harder task
  c.latent_noise = 1.2f;
  c.seed = seed;
  return c;
}

SyntheticVision::SyntheticVision(SyntheticVisionConfig config)
    : config_(config) {
  if (config_.num_classes == 0 || config_.input_dim == 0 ||
      config_.latent_dim == 0 || config_.modes_per_class == 0) {
    throw std::invalid_argument("SyntheticVision: zero-sized config field");
  }
  Rng geometry_rng(config_.seed ^ 0xfeedc0ffee123457ull);
  const std::size_t total_modes = config_.num_classes * config_.modes_per_class;
  mode_centers_ = Tensor::randn({total_modes, config_.latent_dim},
                                geometry_rng, 0.0f, config_.separation);
  const std::size_t hidden = 2 * config_.input_dim;
  const float s1 = std::sqrt(1.0f / static_cast<float>(config_.latent_dim));
  const float s2 = std::sqrt(1.0f / static_cast<float>(hidden));
  w1_ = Tensor::randn({config_.latent_dim, hidden}, geometry_rng, 0.0f, s1);
  b1_ = Tensor::randn({hidden}, geometry_rng, 0.0f, 0.1f);
  w2_ = Tensor::randn({hidden, config_.input_dim}, geometry_rng, 0.0f, s2);
  b2_ = Tensor::randn({config_.input_dim}, geometry_rng, 0.0f, 0.1f);
}

Tensor SyntheticVision::warp(const Tensor& latent, Rng& rng) const {
  Tensor h = tensor::add_row_vector(tensor::matmul(latent, w1_), b1_);
  for (std::size_t i = 0; i < h.numel(); ++i) h[i] = std::tanh(h[i]);
  Tensor x = tensor::add_row_vector(tensor::matmul(h, w2_), b2_);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] += static_cast<float>(rng.normal(0.0, config_.obs_noise));
  }
  return x;
}

Dataset SyntheticVision::sample(std::size_t n, Rng& rng) const {
  std::vector<int> all(config_.num_classes);
  for (std::size_t j = 0; j < config_.num_classes; ++j) {
    all[j] = static_cast<int>(j);
  }
  return sample_classes(n, all, rng);
}

Dataset SyntheticVision::sample_classes(std::size_t n,
                                        std::span<const int> classes,
                                        Rng& rng) const {
  if (classes.empty()) {
    throw std::invalid_argument("sample_classes: no classes given");
  }
  for (int c : classes) {
    if (c < 0 || static_cast<std::size_t>(c) >= config_.num_classes) {
      throw std::invalid_argument("sample_classes: class out of range");
    }
  }
  Tensor latent({n, config_.latent_dim});
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Balanced labels up to rounding, then shuffle-free: round-robin over the
    // requested classes is deterministic and exactly balanced.
    const int cls = classes[i % classes.size()];
    labels[i] = cls;
    const std::size_t mode =
        static_cast<std::size_t>(cls) * config_.modes_per_class +
        rng.uniform_index(config_.modes_per_class);
    for (std::size_t d = 0; d < config_.latent_dim; ++d) {
      latent[i * config_.latent_dim + d] =
          mode_centers_[mode * config_.latent_dim + d] +
          static_cast<float>(rng.normal(0.0, config_.latent_noise));
    }
  }
  Tensor x = warp(latent, rng);
  return Dataset(std::move(x), std::move(labels), config_.num_classes);
}

FederatedDataBundle SyntheticVision::make_bundle(std::size_t train_n,
                                                 std::size_t test_n,
                                                 std::size_t public_n) const {
  Rng rng(config_.seed ^ 0xabcdef0123456789ull);
  FederatedDataBundle bundle;
  bundle.train_pool = sample(train_n, rng);
  bundle.test_global = sample(test_n, rng);
  bundle.public_data = sample(public_n, rng);
  return bundle;
}

}  // namespace fedpkd::data
