#pragma once

#include <string>
#include <vector>

#include "fedpkd/nn/classifier.hpp"

namespace fedpkd::nn {

/// Architecture registry mirroring the paper's ResNet-11/20/29/56 family.
///
/// The paper trains CIFAR ResNets; our substrate trains residual MLPs on
/// synthetic feature vectors (DESIGN.md §1), so each "ResNet-D" maps to a
/// "ResMLP-D": an input stem (Linear + ReLU), `blocks` pre-norm residual MLP
/// blocks, a final LayerNorm producing the feature representation R_w(x), and
/// a linear classifier head. Depth/width scale with D so that the relative
/// capacity and parameter-count ordering of the paper's model family is
/// preserved (resmlp11 < resmlp20 < resmlp29 < resmlp56).
struct ArchSpec {
  std::string name;
  std::size_t blocks;
  std::size_t hidden;
};

/// Dimensionality of the shared prototype/feature space. Heterogeneous
/// architectures differ in trunk depth and width but all project to this
/// common feature dimension, which is what makes client prototypes (Eq. 5)
/// comparable and aggregatable across different model architectures (Eq. 8).
inline constexpr std::size_t kFeatureDim = 64;

/// Specs for the four supported architectures. Throws on unknown name.
/// Known names: "resmlp11", "resmlp20", "resmlp29", "resmlp56".
ArchSpec arch_spec(const std::string& name);

/// All architecture names, smallest first.
std::vector<std::string> known_archs();

/// Builds a classifier of the named architecture. Initialization draws from
/// `rng`, so two calls with equal-state generators produce identical models.
Classifier make_classifier(const std::string& arch, std::size_t input_dim,
                           std::size_t num_classes, tensor::Rng& rng);

/// Builds a custom residual MLP outside the registry (used in tests and by
/// downstream users who want their own capacity point).
Classifier make_resmlp(const std::string& name, std::size_t input_dim,
                       std::size_t num_classes, std::size_t blocks,
                       std::size_t hidden, tensor::Rng& rng);

}  // namespace fedpkd::nn
