#pragma once

#include <memory>
#include <string>

#include "fedpkd/nn/linear.hpp"
#include "fedpkd/nn/module.hpp"

namespace fedpkd::tensor {
class StateIo;
}

namespace fedpkd::nn {

/// A classification model split into a feature extractor ("body", the paper's
/// representation layers R_w) and a linear classifier head, so callers can:
///
///   * read penultimate-layer features for prototype computation (Eq. 5),
///   * inject an extra gradient at the feature layer for the prototype
///     regularizers (Eq. 12, Eq. 16), and
///   * read logits from the last fully connected layer for knowledge
///     distillation (Eq. 6, 11, 15).
///
/// Classifier is move-only; clone() makes an independent deep copy (used when
/// the server seeds its model or FedAvg broadcasts the global weights).
class Classifier {
 public:
  Classifier(std::string arch_name, std::unique_ptr<Module> body,
             std::unique_ptr<Linear> head, std::size_t input_dim);

  Classifier(Classifier&&) noexcept = default;
  Classifier& operator=(Classifier&&) noexcept = default;

  /// -- Forward ---------------------------------------------------------------

  /// Penultimate-layer features R_w(x): [batch, feature_dim].
  /// With train == true, caches state so backward() can run.
  Tensor features(const Tensor& x, bool train = true);

  /// Full forward to logits: [batch, num_classes]. Caches like features().
  Tensor forward(const Tensor& x, bool train = true);

  /// Inference-only logits written into `out` (allocation-free after
  /// warm-up). Bitwise equal to forward(x, /*train=*/false), but leaves
  /// last_features_ and the backward bookkeeping untouched, so it can be
  /// interleaved with training passes. `out` must not alias `x`.
  void logits_into(const Tensor& x, Tensor& out);

  /// Features produced by the most recent forward()/features() call.
  const Tensor& last_features() const { return last_features_; }

  /// -- Backward ---------------------------------------------------------------

  /// Backpropagates a logits gradient through head and body. If
  /// `grad_features_extra` is non-null it is added to the gradient arriving at
  /// the feature layer — this is how the MSE prototype losses couple in
  /// without a second pass. Requires a prior forward(x, train=true).
  void backward(const Tensor& grad_logits,
                const Tensor* grad_features_extra = nullptr);

  /// Backpropagates a gradient that applies only at the feature layer
  /// (for feature-only objectives). Requires features(x, train=true).
  void backward_features(const Tensor& grad_features);

  /// -- Parameters ---------------------------------------------------------------

  std::vector<Parameter*> parameters();
  void zero_grad();
  std::size_t parameter_count();
  /// Parameter footprint in bytes when shipped as float32 (comm accounting).
  std::size_t parameter_bytes();

  Tensor flat_weights();
  void set_flat_weights(const Tensor& flat);

  /// -- Introspection ---------------------------------------------------------------

  const std::string& arch() const { return arch_; }
  /// Structural access for cross-model fusion (fl::CohortStepper inspects the
  /// body's layer list to fuse matching stems into one wide GEMM).
  Module& body() { return *body_; }
  Linear& head() { return *head_; }
  std::size_t input_dim() const { return input_dim_; }
  std::size_t feature_dim() const { return head_->in_features(); }
  std::size_t num_classes() const { return head_->out_features(); }

  Classifier clone() const;

 private:
  /// Runs the body and refreshes last_features_ without copying it out.
  void compute_features(const Tensor& x, bool train);

  std::string arch_;
  std::unique_ptr<Module> body_;
  std::unique_ptr<Linear> head_;
  std::size_t input_dim_;
  Tensor last_features_;
  Tensor eval_features_;  // logits_into scratch, separate from backward state
  bool forward_through_head_ = false;
};

/// State codec field for a model's flat weights (one tensor). Read mode
/// throws tensor::DecodeError when the tensor does not fit the architecture.
void persist_weights(tensor::StateIo& io, Classifier& model);

}  // namespace fedpkd::nn
