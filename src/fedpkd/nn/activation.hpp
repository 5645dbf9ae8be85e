#pragma once

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Elementwise rectified linear unit: y = max(x, 0).
class Relu final : public Module {
 public:
  Relu() = default;

  Tensor forward(const Tensor& x, bool train = true) override;
  void forward_eval_into(const Tensor& x, Tensor& out) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Module> clone() const override;

 private:
  Tensor cached_input_;
};

}  // namespace fedpkd::nn
