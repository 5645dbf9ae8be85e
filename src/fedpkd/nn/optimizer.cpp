#include "fedpkd/nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "fedpkd/tensor/kernels.hpp"

namespace fedpkd::nn {

Adam::Adam(std::vector<Parameter*> params)
    : Adam(std::move(params), Options{}) {}

Adam::Adam(std::vector<Parameter*> params, Options opts)
    : params_(std::move(params)), opts_(opts) {
  for (const Parameter* p : params_) {
    if (p == nullptr) throw std::invalid_argument("Adam: null parameter");
  }
  if (opts_.lr <= 0.0f) throw std::invalid_argument("Adam: lr must be > 0");
  if (opts_.beta1 < 0.0f || opts_.beta1 >= 1.0f || opts_.beta2 < 0.0f ||
      opts_.beta2 >= 1.0f) {
    throw std::invalid_argument("Adam: betas must lie in [0, 1)");
  }
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(opts_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(opts_.beta2, static_cast<float>(t_));
  const tensor::kernels::AdamCoeffs coeffs{
      opts_.lr, opts_.beta1, opts_.beta2, opts_.eps, opts_.weight_decay, bc1,
      bc2};
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    tensor::kernels::adam_update(p.value.data(), p.grad.data(), m_[i].data(),
                                 v_[i].data(), p.numel(), coeffs);
  }
}

void Adam::zero_grad() {
  for (Parameter* p : params_) p->grad.zero();
}

void add_proximal_gradient(std::vector<Parameter*> params,
                           const Tensor& reference, float mu) {
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->numel();
  if (reference.rank() != 1 || reference.numel() != total) {
    throw std::invalid_argument("add_proximal_gradient: reference size " +
                                std::to_string(reference.numel()) +
                                " != model size " + std::to_string(total));
  }
  std::size_t offset = 0;
  for (Parameter* p : params) {
    for (std::size_t k = 0; k < p->numel(); ++k) {
      p->grad[k] += mu * (p->value[k] - reference[offset + k]);
    }
    offset += p->numel();
  }
}

}  // namespace fedpkd::nn
