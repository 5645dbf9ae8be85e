#include "fedpkd/nn/activation.hpp"

#include <stdexcept>

namespace fedpkd::nn {

Tensor Relu::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  Tensor y(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  return y;
}

void Relu::forward_eval_into(const Tensor& x, Tensor& out) {
  out.ensure_shape(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    out[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}

Tensor Relu::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) {
    throw std::logic_error("Relu::backward called before forward(train)");
  }
  if (!grad_out.same_shape(cached_input_)) {
    throw std::invalid_argument("Relu::backward: grad shape mismatch");
  }
  Tensor g(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.numel(); ++i) {
    g[i] = cached_input_[i] > 0.0f ? grad_out[i] : 0.0f;
  }
  return g;
}

std::unique_ptr<Module> Relu::clone() const {
  return std::make_unique<Relu>();
}

}  // namespace fedpkd::nn
