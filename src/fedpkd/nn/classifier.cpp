#include "fedpkd/nn/classifier.hpp"

#include <stdexcept>

#include "fedpkd/tensor/ops.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::nn {

Classifier::Classifier(std::string arch_name, std::unique_ptr<Module> body,
                       std::unique_ptr<Linear> head, std::size_t input_dim)
    : arch_(std::move(arch_name)),
      body_(std::move(body)),
      head_(std::move(head)),
      input_dim_(input_dim) {
  if (!body_ || !head_) {
    throw std::invalid_argument("Classifier: null body or head");
  }
}

void Classifier::compute_features(const Tensor& x, bool train) {
  if (x.rank() != 2 || x.cols() != input_dim_) {
    throw std::invalid_argument("Classifier::features: expected [batch, " +
                                std::to_string(input_dim_) + "], got " +
                                x.shape_string());
  }
  last_features_ = body_->forward(x, train);
  forward_through_head_ = false;
}

Tensor Classifier::features(const Tensor& x, bool train) {
  compute_features(x, train);
  return last_features_;
}

Tensor Classifier::forward(const Tensor& x, bool train) {
  // Feeds the cached features straight to the head instead of copying them
  // through the features() return value.
  compute_features(x, train);
  forward_through_head_ = true;
  return head_->forward(last_features_, train);
}

void Classifier::logits_into(const Tensor& x, Tensor& out) {
  if (x.rank() != 2 || x.cols() != input_dim_) {
    throw std::invalid_argument("Classifier::features: expected [batch, " +
                                std::to_string(input_dim_) + "], got " +
                                x.shape_string());
  }
  body_->forward_eval_into(x, eval_features_);
  head_->forward_eval_into(eval_features_, out);
}

void Classifier::backward(const Tensor& grad_logits,
                          const Tensor* grad_features_extra) {
  if (!forward_through_head_) {
    throw std::logic_error(
        "Classifier::backward: no cached forward pass through the head");
  }
  Tensor grad_features = head_->backward(grad_logits);
  if (grad_features_extra != nullptr) {
    tensor::add_inplace(grad_features, *grad_features_extra);
  }
  body_->backward(grad_features);
}

void Classifier::backward_features(const Tensor& grad_features) {
  if (last_features_.empty()) {
    throw std::logic_error(
        "Classifier::backward_features: no cached feature pass");
  }
  body_->backward(grad_features);
}

std::vector<Parameter*> Classifier::parameters() {
  std::vector<Parameter*> out;
  body_->collect_parameters(out);
  head_->collect_parameters(out);
  return out;
}

void Classifier::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

std::size_t Classifier::parameter_count() {
  std::size_t n = 0;
  for (Parameter* p : parameters()) n += p->numel();
  return n;
}

std::size_t Classifier::parameter_bytes() {
  return 4 * parameter_count();
}

Tensor Classifier::flat_weights() {
  return flatten_parameters(parameters());
}

void Classifier::set_flat_weights(const Tensor& flat) {
  unflatten_parameters(flat, parameters());
}

Classifier Classifier::clone() const {
  auto body_copy = body_->clone();
  auto head_generic = head_->clone();
  // clone() returns Module; the head is always a Linear by construction.
  auto* head_raw = dynamic_cast<Linear*>(head_generic.get());
  if (head_raw == nullptr) {
    throw std::logic_error("Classifier::clone: head clone is not Linear");
  }
  head_generic.release();
  return Classifier(arch_, std::move(body_copy),
                    std::unique_ptr<Linear>(head_raw), input_dim_);
}

void persist_weights(tensor::StateIo& io, Classifier& model) {
  Tensor flat = io.reading() ? Tensor() : model.flat_weights();
  io.tensor(flat);
  if (!io.reading()) return;
  if (flat.rank() != 1 || flat.numel() != model.parameter_count()) {
    throw tensor::DecodeError("state: " + std::to_string(flat.numel()) +
                              " weights for a model with " +
                              std::to_string(model.parameter_count()));
  }
  model.set_flat_weights(flat);
}

}  // namespace fedpkd::nn
