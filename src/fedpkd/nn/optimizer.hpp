#pragma once

#include <vector>

#include "fedpkd/nn/module.hpp"

namespace fedpkd::nn {

/// Adam (Kingma & Ba 2015) with bias correction; the optimizer the paper's
/// evaluation uses for all client and server training (lr = 1e-3).
///
/// Holds non-owning pointers to model parameters and must not outlive the
/// model. step() consumes the gradients accumulated by Module::backward;
/// zero_grad() clears them for the next mini-batch.
class Adam {
 public:
  struct Options {
    float lr = 0.001f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.0f;
  };

  explicit Adam(std::vector<Parameter*> params);
  Adam(std::vector<Parameter*> params, Options opts);
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the current gradients.
  void step();

  /// Zeroes all parameter gradients.
  void zero_grad();

 private:
  std::vector<Parameter*> params_;
  Options opts_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::int64_t t_ = 0;
};

/// Adds the FedProx proximal gradient mu * (w - w_ref) to each parameter's
/// gradient accumulator. `reference` is the flat global weight vector the
/// round started from (same layout as flatten_parameters). Call between
/// backward() and step().
void add_proximal_gradient(std::vector<Parameter*> params,
                           const Tensor& reference, float mu);

}  // namespace fedpkd::nn
