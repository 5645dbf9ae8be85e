#include "fedpkd/nn/model_zoo.hpp"

#include <stdexcept>

#include "fedpkd/nn/activation.hpp"
#include "fedpkd/nn/layer_norm.hpp"
#include "fedpkd/nn/residual.hpp"
#include "fedpkd/nn/sequential.hpp"

namespace fedpkd::nn {

ArchSpec arch_spec(const std::string& name) {
  // blocks/hidden chosen so parameter counts are strictly increasing and the
  // largest ("server") model is several times the smallest, as in the paper's
  // ResNet-11 .. ResNet-56 ladder.
  if (name == "resmlp11") return {name, 2, 48};
  if (name == "resmlp20") return {name, 4, 64};
  if (name == "resmlp29") return {name, 6, 80};
  if (name == "resmlp56") return {name, 12, 96};
  throw std::invalid_argument("arch_spec: unknown architecture '" + name +
                              "' (expected resmlp11/20/29/56)");
}

std::vector<std::string> known_archs() {
  return {"resmlp11", "resmlp20", "resmlp29", "resmlp56"};
}

Classifier make_resmlp(const std::string& name, std::size_t input_dim,
                       std::size_t num_classes, std::size_t blocks,
                       std::size_t hidden, tensor::Rng& rng) {
  if (input_dim == 0 || num_classes == 0 || hidden == 0) {
    throw std::invalid_argument("make_resmlp: zero-sized dimension");
  }
  auto body = std::make_unique<Sequential>();
  body->add(std::make_unique<Linear>(input_dim, hidden, rng, name + ".stem"));
  body->add(std::make_unique<Relu>());
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::string bn = name + ".block" + std::to_string(b);
    auto inner = std::make_unique<Sequential>();
    inner->add(std::make_unique<LayerNorm>(hidden, 1e-5f, bn + ".norm"));
    inner->add(std::make_unique<Linear>(hidden, hidden, rng, bn + ".fc1"));
    inner->add(std::make_unique<Relu>());
    inner->add(std::make_unique<Linear>(hidden, hidden, rng, bn + ".fc2"));
    body->add(std::make_unique<Residual>(std::move(inner)));
  }
  body->add(std::make_unique<LayerNorm>(hidden, 1e-5f, name + ".final_norm"));
  // Project into the shared feature space so prototypes from heterogeneous
  // architectures live in the same R^kFeatureDim (see kFeatureDim docs).
  body->add(std::make_unique<Linear>(hidden, kFeatureDim, rng, name + ".proj"));
  body->add(std::make_unique<LayerNorm>(kFeatureDim, 1e-5f, name + ".feat_norm"));
  auto head =
      std::make_unique<Linear>(kFeatureDim, num_classes, rng, name + ".head");
  return Classifier(name, std::move(body), std::move(head), input_dim);
}

Classifier make_classifier(const std::string& arch, std::size_t input_dim,
                           std::size_t num_classes, tensor::Rng& rng) {
  const ArchSpec spec = arch_spec(arch);
  return make_resmlp(spec.name, input_dim, num_classes, spec.blocks,
                     spec.hidden, rng);
}

}  // namespace fedpkd::nn
