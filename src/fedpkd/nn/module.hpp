#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fedpkd/tensor/tensor.hpp"

namespace fedpkd::nn {

using tensor::Rng;
using tensor::Tensor;

/// A trainable tensor with its gradient accumulator.
///
/// Parameters are owned by the Module that declares them; optimizers and
/// federated aggregators hold non-owning Parameter* obtained via
/// Module::parameters() and must not outlive the model.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  std::size_t numel() const { return value.numel(); }
};

/// Base class for differentiable layers.
///
/// The library uses layer-wise backpropagation rather than a tape: each
/// Module caches whatever forward() state its backward() needs, so a module
/// instance supports exactly one forward/backward pair in flight. That is all
/// mini-batch SGD requires, keeps memory bounded and deterministic, and avoids
/// a dynamic autograd graph in the hot loop (see DESIGN.md §2).
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Computes the layer output for a [batch, in] input and caches state for
  /// backward(). `train` distinguishes training and inference passes (layers
  /// may skip caching when train is false).
  virtual Tensor forward(const Tensor& x, bool train = true) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients (+=) and returns
  /// dLoss/dInput. Must be called after a forward(x, /*train=*/true).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Inference pass that writes into a caller-provided tensor instead of
  /// returning a fresh one, so steady-state evaluation (public-set logits
  /// every round) reuses the same buffers and allocates nothing after
  /// warm-up. Every layer must implement it with the exact eval-mode
  /// arithmetic of forward(), never a reordered variant: the result is
  /// bitwise equal to `out = forward(x, /*train=*/false)` whatever shape and
  /// contents `out` had. `out` must not alias `x`. Does not disturb cached
  /// backward state.
  virtual void forward_eval_into(const Tensor& x, Tensor& out) = 0;

  /// Appends non-owning pointers to this module's parameters.
  virtual void collect_parameters(std::vector<Parameter*>& out);

  /// Deep copy (fresh parameters with equal values, zero gradients).
  virtual std::unique_ptr<Module> clone() const = 0;

  /// All parameters of this module (and submodules), in declaration order.
  std::vector<Parameter*> parameters();

  /// Zeroes every parameter gradient.
  void zero_grad();

  /// Total number of trainable scalars.
  std::size_t parameter_count();
};

/// -- Flat weight-vector helpers (federated averaging works on these) --------

/// Concatenates all parameter values into one rank-1 tensor.
Tensor flatten_parameters(std::vector<Parameter*> params);

/// Writes a flat weight vector back into the parameters. Throws if the total
/// element count does not match.
void unflatten_parameters(const Tensor& flat, std::vector<Parameter*> params);

}  // namespace fedpkd::nn
