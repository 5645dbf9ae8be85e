#include "fedpkd/core/distill.hpp"

#include <cmath>
#include <stdexcept>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/nn/loss.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::core {

fl::TrainStats server_ensemble_distill(Classifier& server_model,
                                       const Tensor& inputs,
                                       const Tensor& teacher_probs,
                                       const std::vector<int>& pseudo_labels,
                                       const PrototypeSet& global_prototypes,
                                       const ServerDistillOptions& options,
                                       const fl::TrainOptions& train,
                                       tensor::Rng& rng) {
  if (inputs.rank() != 2 || teacher_probs.rank() != 2 ||
      inputs.rows() != teacher_probs.rows() ||
      pseudo_labels.size() != inputs.rows()) {
    throw std::invalid_argument("server_ensemble_distill: inconsistent sets");
  }
  if (options.delta < 0.0f || options.delta > 1.0f) {
    throw std::invalid_argument(
        "server_ensemble_distill: delta must be in [0, 1]");
  }
  if (inputs.rows() == 0) {
    throw std::invalid_argument("server_ensemble_distill: empty distill set");
  }
  global_prototypes.validate();
  fl::check_prototype_targets(global_prototypes.matrix,
                              &global_prototypes.present, teacher_probs.cols(),
                              server_model.feature_dim());

  const data::Dataset wrapper(inputs, pseudo_labels, teacher_probs.cols());

  // Per-sample confidence weights for the extension (mean-1 normalized per
  // batch below; both KD losses have row-separable gradients, so scaling a
  // row's gradient is exactly scaling its loss contribution).
  std::vector<float> confidence;
  if (options.confidence_weighted) {
    const Tensor entropy = tensor::entropy_rows(teacher_probs);
    const float h_max = std::log(static_cast<float>(teacher_probs.cols()));
    confidence.resize(entropy.numel());
    for (std::size_t i = 0; i < entropy.numel(); ++i) {
      confidence[i] = std::max(1e-3f, 1.0f - entropy[i] / h_max);
    }
  }

  // Teacher-slice and prototype-gradient buffers persist across steps so the
  // hot loop reuses their capacity instead of reallocating.
  Tensor teacher;
  Tensor grad_features;
  return fl::train_minibatch(
      server_model, wrapper, train, rng, 0x73727664,
      [&](const data::Batch& batch, const Tensor& logits) {
        teacher_probs.gather_rows_into(batch.indices, teacher);
        // L_kd (Eq. 11): KL(S || M_G) + CE(M_G, pseudo), both on this batch.
        auto [kl, grad_kl] =
            nn::kl_distillation(logits, teacher, options.temperature);
        auto [ce, grad_ce] = nn::softmax_cross_entropy(logits, batch.y);
        fl::BatchLoss out{options.delta * (kl + ce), std::move(grad_kl)};
        Tensor& grad_logits = out.grad_logits;
        tensor::add_inplace(grad_logits, grad_ce);
        tensor::scale_inplace(grad_logits, options.delta);

        if (options.confidence_weighted) {
          double mean_w = 0.0;
          for (std::size_t r = 0; r < batch.size(); ++r) {
            mean_w += confidence[batch.indices[r]];
          }
          mean_w /= static_cast<double>(batch.size());
          const std::size_t cols = grad_logits.cols();
          // Row-parallel: every row's scale depends only on its own index. At
          // ~cols ops per row a distill batch never clears the grain, so this
          // stays inline — kept as parallel_for for when batches grow.
          exec::parallel_for(
              batch.size(), exec::grain_for_cost(cols),
              [&](std::size_t row_begin, std::size_t row_end) {
                for (std::size_t r = row_begin; r < row_end; ++r) {
                  const float w = static_cast<float>(
                      confidence[batch.indices[r]] / mean_w);
                  float* g = grad_logits.data() + r * cols;
                  for (std::size_t c = 0; c < cols; ++c) g[c] *= w;
                }
              });
        }

        // L_p (Eq. 12): pull each sample's feature vector toward the global
        // prototype of its pseudo-label, with one (1 - delta) / counted scale.
        if (options.delta < 1.0f) {
          const fl::PrototypeMse mse = fl::masked_prototype_mse(
              server_model.last_features(), batch.y, global_prototypes.matrix,
              &global_prototypes.present, grad_features);
          if (mse.counted > 0) {
            const float inv = 1.0f / static_cast<float>(mse.counted);
            tensor::scale_inplace(grad_features, (1.0f - options.delta) * inv);
            out.value += (1.0f - options.delta) *
                         static_cast<float>(
                             mse.sum / static_cast<double>(mse.counted));
            out.grad_features = &grad_features;
          }
        }
        return out;
      });
}

}  // namespace fedpkd::core
