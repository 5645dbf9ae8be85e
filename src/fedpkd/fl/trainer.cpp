#include "fedpkd/fl/trainer.hpp"

#include <stdexcept>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/nn/optimizer.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::fl {

TrainStats train_minibatch(Classifier& model, const data::Dataset& dataset,
                           const TrainOptions& options, Rng& rng,
                           std::uint64_t salt, const BatchLossFn& loss) {
  nn::Adam optimizer(model.parameters(), {.lr = options.lr});
  const Tensor reference =
      options.proximal_mu ? model.flat_weights() : Tensor{};
  data::DataLoader loader(dataset, options.batch_size, rng.split(salt));
  TrainStats stats;
  double loss_sum = 0.0;
  data::Batch batch;  // reuses its capacity from the second step on
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    loader.reset();
    while (loader.next(batch)) {
      optimizer.zero_grad();
      const Tensor logits = model.forward(batch.x, /*train=*/true);
      const BatchLoss step = loss(batch, logits);
      model.backward(step.grad_logits, step.grad_features);
      if (options.proximal_mu) {
        nn::add_proximal_gradient(model.parameters(), reference,
                                  *options.proximal_mu);
      }
      optimizer.step();
      ++stats.steps;
      stats.final_loss = step.value;
      loss_sum += step.value;
    }
  }
  stats.mean_loss = stats.steps > 0
                        ? static_cast<float>(loss_sum / stats.steps)
                        : 0.0f;
  return stats;
}

void check_prototype_targets(const Tensor& prototypes,
                             const std::vector<bool>* present,
                             std::size_t num_classes,
                             std::size_t feature_dim) {
  if (prototypes.rank() != 2 || prototypes.cols() != feature_dim) {
    throw std::invalid_argument(
        "prototype loss: prototype matrix shape does not match feature dim");
  }
  if (prototypes.rows() < num_classes) {
    throw std::invalid_argument(
        "prototype loss: fewer prototype rows than classes");
  }
  if (present != nullptr && present->size() != prototypes.rows()) {
    throw std::invalid_argument(
        "prototype loss: presence mask does not match prototype rows");
  }
}

PrototypeMse masked_prototype_mse(const Tensor& features,
                                  std::span<const int> labels,
                                  const Tensor& prototypes,
                                  const std::vector<bool>* present,
                                  Tensor& grad) {
  grad.ensure_shape(features.shape());
  grad.zero();  // rows whose prototype class is absent stay 0
  const std::size_t b = features.rows(), d = features.cols();
  const auto is_present = [&](std::size_t r) {
    return present == nullptr ||
           (*present)[static_cast<std::size_t>(labels[r])];
  };
  // Rows are independent: each lane writes its own gradient rows and a
  // per-row partial; the partials reduce serially in row order so the sum is
  // identical for every thread count.
  std::vector<double> row_sum(b, 0.0);
  exec::parallel_for(b, exec::grain_for_cost(d * 4),
                     [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      if (!is_present(r)) continue;
      const float* target =
          prototypes.data() + static_cast<std::size_t>(labels[r]) * d;
      double acc = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        const float diff = features[r * d + c] - target[c];
        acc += static_cast<double>(diff) * diff;
        grad[r * d + c] = 2.0f * diff;
      }
      row_sum[r] = acc;
    }
  });
  PrototypeMse out;
  for (std::size_t r = 0; r < b; ++r) {
    if (!is_present(r)) continue;
    out.sum += row_sum[r];
    out.counted += d;
  }
  return out;
}

TrainStats train_supervised(Classifier& model, const data::Dataset& dataset,
                            const TrainOptions& options, Rng& rng) {
  if (dataset.empty()) {
    throw std::invalid_argument("train_supervised: empty dataset");
  }
  const Tensor* protos = options.prototype_matrix;
  if (protos != nullptr) {
    check_prototype_targets(*protos, options.prototype_class_present,
                            dataset.num_classes, model.feature_dim());
  }
  Tensor grad_features;  // keeps its capacity across steps
  return train_minibatch(
      model, dataset, options, rng, 0x7261696e,
      [&](const data::Batch& batch, const Tensor& logits) {
        auto [ce, grad_logits] = nn::softmax_cross_entropy(logits, batch.y);
        BatchLoss out{ce, std::move(grad_logits)};
        if (protos == nullptr) return out;
        // Eq. (16): grad = ((2 diff) / counted) * epsilon, in that order.
        const PrototypeMse mse = masked_prototype_mse(
            model.last_features(), batch.y, *protos,
            options.prototype_class_present, grad_features);
        if (mse.counted == 0) return out;
        const float inv = 1.0f / static_cast<float>(mse.counted);
        tensor::scale_inplace(grad_features, inv);
        tensor::scale_inplace(grad_features, options.prototype_epsilon);
        out.value +=
            options.prototype_epsilon * (static_cast<float>(mse.sum) * inv);
        out.grad_features = &grad_features;
        return out;
      });
}

TrainStats train_distill(Classifier& model, const DistillSet& set, float gamma,
                         const TrainOptions& options, Rng& rng,
                         float temperature) {
  if (set.inputs.rank() != 2 || set.teacher_probs.rank() != 2 ||
      set.inputs.rows() != set.teacher_probs.rows() ||
      set.pseudo_labels.size() != set.inputs.rows()) {
    throw std::invalid_argument("train_distill: inconsistent distill set");
  }
  if (gamma < 0.0f || gamma > 1.0f) {
    throw std::invalid_argument("train_distill: gamma must be in [0, 1]");
  }
  if (set.inputs.rows() == 0) {
    throw std::invalid_argument("train_distill: empty distill set");
  }
  // Wrap the distill set as a Dataset so DataLoader handles shuffling; the
  // teacher rows are re-gathered per batch by index.
  const data::Dataset wrapper(set.inputs, set.pseudo_labels,
                              set.teacher_probs.cols());
  Tensor teacher;
  return train_minibatch(
      model, wrapper, options, rng, 0x64697374,
      [&](const data::Batch& batch, const Tensor& logits) {
        set.teacher_probs.gather_rows_into(batch.indices, teacher);
        auto [kl, grad_kl] = nn::kl_distillation(logits, teacher, temperature);
        BatchLoss out{gamma * kl, std::move(grad_kl)};
        if (gamma < 1.0f) {
          auto [ce, grad_ce] = nn::softmax_cross_entropy(logits, batch.y);
          out.value += (1.0f - gamma) * ce;
          // Fused: grad = gamma * grad_kl + (1 - gamma) * grad_ce, rounding
          // exactly like the scale_inplace + axpy_inplace pair it replaces.
          tensor::scale_add_inplace(out.grad_logits, gamma, grad_ce,
                                    1.0f - gamma);
        } else {
          tensor::scale_inplace(out.grad_logits, gamma);
        }
        return out;
      });
}

namespace {

template <typename Forward>
Tensor batched_apply(const Tensor& inputs, std::size_t batch_size,
                     std::size_t out_cols, Forward&& forward) {
  if (inputs.rank() != 2) {
    throw std::invalid_argument("batched_apply: inputs must be rank-2");
  }
  if (batch_size == 0) {
    throw std::invalid_argument("batched_apply: batch_size must be > 0");
  }
  const std::size_t n = inputs.rows();
  Tensor out({n, out_cols});
  std::vector<std::size_t> idx;
  Tensor xbuf;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t take = std::min(batch_size, n - start);
    idx.resize(take);
    for (std::size_t i = 0; i < take; ++i) idx[i] = start + i;
    inputs.gather_rows_into(idx, xbuf);
    Tensor block = forward(xbuf);
    for (std::size_t i = 0; i < take; ++i) {
      out.set_row(start + i, block.row(i));
    }
  }
  return out;
}

}  // namespace

Tensor compute_logits(Classifier& model, const Tensor& inputs,
                      std::size_t batch_size) {
  return batched_apply(inputs, batch_size, model.num_classes(),
                       [&](const Tensor& x) {
                         return model.forward(x, /*train=*/false);
                       });
}

Tensor compute_features(Classifier& model, const Tensor& inputs,
                        std::size_t batch_size) {
  return batched_apply(inputs, batch_size, model.feature_dim(),
                       [&](const Tensor& x) {
                         return model.features(x, /*train=*/false);
                       });
}

float evaluate_accuracy(Classifier& model, const data::Dataset& dataset,
                        std::size_t batch_size) {
  if (dataset.empty()) {
    throw std::invalid_argument("evaluate_accuracy: empty dataset");
  }
  Tensor logits = compute_logits(model, dataset.features, batch_size);
  return nn::accuracy(logits, dataset.labels);
}

}  // namespace fedpkd::fl
