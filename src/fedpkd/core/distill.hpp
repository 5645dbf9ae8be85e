#pragma once

#include "fedpkd/core/prototype.hpp"
#include "fedpkd/fl/trainer.hpp"

namespace fedpkd::core {

/// Loss hyperparameters of the server-side prototype-based ensemble
/// distillation (Eq. 11-13); epochs, batch size and learning rate come from
/// the fl::TrainOptions every training entry point takes. `delta` balances
/// classifier learning (the KD term, Eq. 11) against feature learning (the
/// prototype MSE term, Eq. 12): F = delta*L_kd + (1-delta)*L_p. Setting
/// delta = 1 disables the prototype term, which is exactly the "w/o Pro"
/// ablation of Fig. 8.
struct ServerDistillOptions {
  float delta = 0.5f;
  float temperature = 1.0f;
  /// Future-work extension ("enhancing the ensemble distillation
  /// mechanism"): weight each sample's KD loss by the teacher's confidence,
  /// 1 - H(teacher_i)/log(N), renormalized to mean 1 per batch, so the
  /// server leans on the rows the ensemble actually agrees about.
  bool confidence_weighted = false;
};

/// Trains the server model on the (filtered) public subset with aggregated
/// teacher knowledge, through fl::train_minibatch. `teacher_probs` rows must
/// align with `inputs` rows and be probability vectors; `pseudo_labels`
/// likewise (Eq. 9 output restricted to the filtered subset).
/// `global_prototypes` must cover every teacher class; prototype rows absent
/// from it contribute no L_p gradient for their samples. The prototype
/// options of `train` are ignored.
fl::TrainStats server_ensemble_distill(Classifier& server_model,
                                       const Tensor& inputs,
                                       const Tensor& teacher_probs,
                                       const std::vector<int>& pseudo_labels,
                                       const PrototypeSet& global_prototypes,
                                       const ServerDistillOptions& options,
                                       const fl::TrainOptions& train,
                                       tensor::Rng& rng);

}  // namespace fedpkd::core
