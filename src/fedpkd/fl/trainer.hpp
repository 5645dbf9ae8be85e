#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fedpkd/data/loader.hpp"
#include "fedpkd/nn/classifier.hpp"
#include "fedpkd/nn/loss.hpp"

namespace fedpkd::fl {

using nn::Classifier;
using tensor::Rng;
using tensor::Tensor;

/// Summary of one training call.
struct TrainStats {
  std::size_t steps = 0;
  float final_loss = 0.0f;
  float mean_loss = 0.0f;
};

/// Options shared by the training entry points below. `proximal_mu`, when
/// set, adds the FedProx term mu/2 ||w - w_ref||^2 (w_ref = weights at call
/// time). `prototype_*` couple the prototype MSE regularizer of Eq. (16)
/// into supervised training: for each sample the feature vector is pulled
/// toward the prototype of its label with weight `prototype_epsilon`.
struct TrainOptions {
  std::size_t epochs = 1;
  std::size_t batch_size = 32;
  float lr = 1e-3f;
  std::optional<float> proximal_mu;
  /// [num_classes, feature_dim] prototype matrix; rows for absent classes may
  /// be arbitrary if `prototype_class_present` marks them false.
  const Tensor* prototype_matrix = nullptr;
  const std::vector<bool>* prototype_class_present = nullptr;
  float prototype_epsilon = 0.5f;
};

/// Supervised cross-entropy training on a labeled dataset (Eq. 4, and with
/// prototypes Eq. 16). Uses Adam as in the paper.
TrainStats train_supervised(Classifier& model, const data::Dataset& dataset,
                            const TrainOptions& options, Rng& rng);

/// Knowledge-distillation training on (inputs, teacher distributions):
/// loss = gamma * KL(teacher || student) + (1 - gamma) * CE(student,
/// pseudo_label) where pseudo_label = argmax teacher (Eq. 15 on clients,
/// and the KD part of Eq. 11 on the server). `temperature` applies to the
/// student softmax inside the KL.
struct DistillSet {
  Tensor inputs;         // [n, d]
  Tensor teacher_probs;  // [n, classes], rows sum to 1
  std::vector<int> pseudo_labels;
};

TrainStats train_distill(Classifier& model, const DistillSet& set, float gamma,
                         const TrainOptions& options, Rng& rng,
                         float temperature = 1.0f);

/// One batch's loss as train_minibatch consumes it: the value, its gradient
/// w.r.t. the logits and, for a prototype term, an extra gradient w.r.t. the
/// penultimate features (null when the batch has none).
struct BatchLoss {
  float value = 0.0f;
  Tensor grad_logits;
  const Tensor* grad_features = nullptr;
};

/// Computes one batch's loss from the logits of model.forward(batch.x).
using BatchLossFn =
    std::function<BatchLoss(const data::Batch& batch, const Tensor& logits)>;

/// The minibatch loop behind every training entry point: Adam at
/// `options.lr` over `options.epochs` shuffled passes of `dataset` in batches
/// of `options.batch_size`, the shuffles drawn from rng.split(salt). Each
/// step runs zero_grad -> forward(train) -> `loss` -> backward -> the FedProx
/// gradient when `options.proximal_mu` is set -> Adam step. The
/// `prototype_*` options are the supervised loss's business, not the loop's.
TrainStats train_minibatch(Classifier& model, const data::Dataset& dataset,
                           const TrainOptions& options, Rng& rng,
                           std::uint64_t salt, const BatchLossFn& loss);

/// Throws std::invalid_argument unless `prototypes` is a
/// [>= num_classes, feature_dim] matrix and `present` (when set) holds one
/// flag per prototype row: what masked_prototype_mse needs to index every
/// label in [0, num_classes). Callers run it before their first step.
void check_prototype_targets(const Tensor& prototypes,
                             const std::vector<bool>* present,
                             std::size_t num_classes, std::size_t feature_dim);

/// Sum of squared distances between each feature row and its label's
/// prototype, over the rows whose class is present (`present` null = all),
/// and the number of elements it counted.
struct PrototypeMse {
  double sum = 0.0;
  std::size_t counted = 0;
};

/// The masked prototype MSE of Eq. (12) and (16), unscaled: writes
/// grad = 2 (features - prototypes[label]) on present rows and 0 elsewhere.
/// Callers scale grad and sum by 1 / counted and their loss weight.
/// Row-parallel; the per-row sums reduce in row order, so the result is the
/// same at every lane count.
PrototypeMse masked_prototype_mse(const Tensor& features,
                                  std::span<const int> labels,
                                  const Tensor& prototypes,
                                  const std::vector<bool>* present,
                                  Tensor& grad);

/// Batched inference: logits for every row of `inputs` (eval mode, no caches
/// kept). Batch bound keeps peak memory flat for large public sets.
Tensor compute_logits(Classifier& model, const Tensor& inputs,
                      std::size_t batch_size = 256);

/// Batched inference of penultimate features R_w(x).
Tensor compute_features(Classifier& model, const Tensor& inputs,
                        std::size_t batch_size = 256);

/// Top-1 accuracy of the model on a labeled dataset.
float evaluate_accuracy(Classifier& model, const data::Dataset& dataset,
                        std::size_t batch_size = 256);

}  // namespace fedpkd::fl
