#include "fedpkd/nn/module.hpp"

#include <stdexcept>

namespace fedpkd::nn {

void Module::collect_parameters(std::vector<Parameter*>&) {}

std::vector<Parameter*> Module::parameters() {
  std::vector<Parameter*> out;
  collect_parameters(out);
  return out;
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

std::size_t Module::parameter_count() {
  std::size_t n = 0;
  for (Parameter* p : parameters()) n += p->numel();
  return n;
}

Tensor flatten_parameters(std::vector<Parameter*> params) {
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->numel();
  Tensor flat({total});
  std::size_t offset = 0;
  for (const Parameter* p : params) {
    std::copy(p->value.flat().begin(), p->value.flat().end(),
              flat.flat().begin() + static_cast<std::ptrdiff_t>(offset));
    offset += p->numel();
  }
  return flat;
}

void unflatten_parameters(const Tensor& flat, std::vector<Parameter*> params) {
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->numel();
  if (flat.rank() != 1 || flat.numel() != total) {
    throw std::invalid_argument(
        "unflatten_parameters: flat vector has " +
        std::to_string(flat.numel()) + " elements, model has " +
        std::to_string(total));
  }
  std::size_t offset = 0;
  for (Parameter* p : params) {
    std::copy(flat.flat().begin() + static_cast<std::ptrdiff_t>(offset),
              flat.flat().begin() + static_cast<std::ptrdiff_t>(offset + p->numel()),
              p->value.flat().begin());
    offset += p->numel();
  }
}

}  // namespace fedpkd::nn
