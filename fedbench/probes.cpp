#include "probes.hpp"

#include <immintrin.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <variant>

#include "fedpkd/comm/frame.hpp"
#include "fedpkd/comm/payload.hpp"
#include "fedpkd/nn/loss.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/nn/optimizer.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedbench::probes {

namespace comm = fedpkd::comm;
namespace nn = fedpkd::nn;
namespace tensor = fedpkd::tensor;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over `repeats` of the seconds one call of `body` takes.
template <typename Body>
double median_seconds(std::size_t repeats, Body&& body) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    body();
    samples.push_back(seconds_since(start));
  }
  return median(std::move(samples));
}

constexpr std::size_t kFmaChains = 10;

__attribute__((target("avx2,fma"))) float fma_chains_avx(std::size_t iters,
                                                         float seed) {
  __m256 acc[kFmaChains];
  for (std::size_t c = 0; c < kFmaChains; ++c) {
    acc[c] = _mm256_set1_ps(seed + static_cast<float>(c));
  }
  const __m256 mul = _mm256_set1_ps(0.999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  for (std::size_t i = 0; i < iters; ++i) {
    for (std::size_t c = 0; c < kFmaChains; ++c) {
      acc[c] = _mm256_fmadd_ps(acc[c], mul, add);
    }
  }
  __m256 sum = acc[0];
  for (std::size_t c = 1; c < kFmaChains; ++c) sum = _mm256_add_ps(sum, acc[c]);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, sum);
  float total = 0.0f;
  for (float x : lanes) total += x;
  return total;
}

float fma_chains_scalar(std::size_t iters, float seed) {
  float acc[kFmaChains];
  for (std::size_t c = 0; c < kFmaChains; ++c) {
    acc[c] = seed + static_cast<float>(c);
  }
  for (std::size_t i = 0; i < iters; ++i) {
    for (std::size_t c = 0; c < kFmaChains; ++c) {
      acc[c] = acc[c] * 0.999999f + 1e-7f;
    }
  }
  float total = 0.0f;
  for (float x : acc) total += x;
  return total;
}

volatile float g_sink = 0.0f;

}  // namespace

double fma_roof_gflops() {
  const bool avx = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  const std::size_t iters = 2'000'000;
  const double flops_per_iter =
      static_cast<double>(kFmaChains) * (avx ? 16.0 : 2.0);
  const float seed = 1.0f + static_cast<float>(g_sink);
  const double s = median_seconds(5, [&] {
    g_sink = avx ? fma_chains_avx(iters, seed) : fma_chains_scalar(iters, seed);
  });
  return flops_per_iter * static_cast<double>(iters) / s * 1e-9;
}

double matmul_gflops(std::size_t m, std::size_t k, std::size_t n,
                     bool transpose_b) {
  tensor::Rng rng(0x6d61746d);
  const tensor::Tensor a = tensor::Tensor::randn({m, k}, rng);
  const tensor::Tensor b = transpose_b ? tensor::Tensor::randn({n, k}, rng)
                                       : tensor::Tensor::randn({k, n}, rng);
  tensor::Tensor out({m, n});
  const std::size_t calls = 200;
  auto batch = [&] {
    for (std::size_t i = 0; i < calls; ++i) {
      if (transpose_b) {
        tensor::matmul_transpose_b_into(a, b, out);
      } else {
        tensor::matmul_into(a, b, out);
      }
    }
    g_sink = out[0];
  };
  batch();  // warm caches and workspaces
  const double s = median_seconds(9, batch);
  return 2.0 * static_cast<double>(m * k * n * calls) / s * 1e-9;
}

double train_step_seconds(const std::string& arch, std::size_t input_dim,
                          std::size_t num_classes, std::size_t batch) {
  tensor::Rng rng(0x73746570);
  nn::Classifier model = nn::make_classifier(arch, input_dim, num_classes, rng);
  nn::Adam adam(model.parameters());
  const tensor::Tensor x = tensor::Tensor::randn({batch, input_dim}, rng);
  std::vector<int> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    labels[i] = static_cast<int>(rng.uniform_index(num_classes));
  }
  auto step = [&] {
    model.zero_grad();
    const tensor::Tensor logits = model.forward(x, true);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    model.backward(loss.grad);
    adam.step();
    g_sink = loss.value;
  };
  for (int i = 0; i < 3; ++i) step();
  return median_seconds(25, step);
}

double adam_step_seconds(const std::string& arch, std::size_t input_dim,
                         std::size_t num_classes) {
  tensor::Rng rng(0x6164616d);
  nn::Classifier model = nn::make_classifier(arch, input_dim, num_classes, rng);
  nn::Adam adam(model.parameters());
  const tensor::Tensor x = tensor::Tensor::randn({8, input_dim}, rng);
  std::vector<int> labels(8, 0);
  model.zero_grad();
  model.backward(nn::softmax_cross_entropy(model.forward(x, true), labels).grad);
  for (int i = 0; i < 3; ++i) adam.step();
  return median_seconds(51, [&] { adam.step(); });
}

double codec_ns_per_byte(const std::vector<fedpkd::fl::PayloadBundle>& bundles) {
  std::size_t bytes = 0;
  auto replay = [&] {
    bytes = 0;
    for (const fedpkd::fl::PayloadBundle& bundle : bundles) {
      for (const fedpkd::fl::StagePayload& part : bundle.parts) {
        const std::vector<std::byte> wire =
            std::visit([](const auto& p) { return comm::encode(p); }, part);
        bytes += wire.size();
        const std::vector<std::byte> frame = comm::make_frame(wire);
        const auto opened = comm::open_frame(frame);
        if (!opened) throw std::runtime_error("codec replay: frame CRC failed");
        switch (comm::peek_kind(*opened)) {
          case comm::PayloadKind::kWeights:
            g_sink = comm::decode_weights(*opened).flat[0];
            break;
          case comm::PayloadKind::kLogits:
            g_sink = static_cast<float>(comm::decode_logits(*opened).sample_ids.size());
            break;
          case comm::PayloadKind::kPrototypes:
            g_sink = static_cast<float>(comm::decode_prototypes(*opened).entries.size());
            break;
        }
      }
    }
  };
  replay();
  if (bytes == 0) throw std::runtime_error("codec replay: no captured bundles");
  return median_seconds(7, replay) / static_cast<double>(bytes) * 1e9;
}

}  // namespace fedbench::probes
