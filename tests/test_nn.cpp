// Unit and property tests for the neural-network substrate: layers (with
// finite-difference gradient checks), losses, optimizers, classifier, zoo.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "fedpkd/nn/activation.hpp"
#include "fedpkd/nn/classifier.hpp"
#include "fedpkd/nn/layer_norm.hpp"
#include "fedpkd/nn/linear.hpp"
#include "fedpkd/nn/loss.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/nn/module.hpp"
#include "fedpkd/nn/optimizer.hpp"
#include "fedpkd/nn/residual.hpp"
#include "fedpkd/nn/sequential.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace fedpkd::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;

/// Scalar test loss: L = sum_i probe_i * output_i, whose exact gradient
/// w.r.t. the output is `probe`. Lets us validate backward() against central
/// finite differences of the forward pass alone.
float probe_loss(const Tensor& output, const Tensor& probe) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < output.numel(); ++i) acc += output[i] * probe[i];
  return acc;
}

/// Checks dL/dInput and every dL/dParam of `module` against central
/// differences. Uses double-sided eps and a mixed abs/rel tolerance.
void check_gradients(Module& module, const Tensor& input, std::uint64_t seed,
                     float tolerance = 2e-2f) {
  Rng rng(seed);
  Tensor out = module.forward(input, /*train=*/true);
  Tensor probe = Tensor::randn(out.shape(), rng);

  module.zero_grad();
  Tensor analytic_dx = module.backward(probe);

  constexpr float kEps = 1e-3f;
  // Input gradient.
  Tensor x = input;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + kEps;
    const float up = probe_loss(module.forward(x, false), probe);
    x[i] = saved - kEps;
    const float down = probe_loss(module.forward(x, false), probe);
    x[i] = saved;
    const float numeric = (up - down) / (2.0f * kEps);
    const float denom = std::max(1.0f, std::abs(numeric));
    EXPECT_NEAR(analytic_dx[i] / denom, numeric / denom, tolerance)
        << "input element " << i;
  }
  // Parameter gradients.
  for (Parameter* p : module.parameters()) {
    for (std::size_t i = 0; i < p->numel(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + kEps;
      const float up = probe_loss(module.forward(input, false), probe);
      p->value[i] = saved - kEps;
      const float down = probe_loss(module.forward(input, false), probe);
      p->value[i] = saved;
      const float numeric = (up - down) / (2.0f * kEps);
      const float denom = std::max(1.0f, std::abs(numeric));
      EXPECT_NEAR(p->grad[i] / denom, numeric / denom, tolerance)
          << p->name << " element " << i;
    }
  }
}

// ------------------------------------------------------------ Gradients ---

TEST(Gradients, Linear) {
  Rng rng(1);
  Linear layer(5, 3, rng);
  check_gradients(layer, Tensor::randn({4, 5}, rng), 100);
}

TEST(Gradients, Relu) {
  Rng rng(2);
  Relu layer;
  // Keep inputs away from the kink at 0 where finite differences lie.
  Tensor x = Tensor::randn({6, 4}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.05f) x[i] = 0.2f;
  }
  check_gradients(layer, x, 101);
}

TEST(Gradients, LayerNorm) {
  Rng rng(4);
  LayerNorm layer(6);
  check_gradients(layer, Tensor::randn({5, 6}, rng), 103);
}

TEST(Gradients, SequentialComposite) {
  Rng rng(5);
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<Linear>(4, 8, rng));
  seq->add(std::make_unique<Relu>());
  seq->add(std::make_unique<LayerNorm>(8));
  seq->add(std::make_unique<Linear>(8, 3, rng));
  check_gradients(*seq, Tensor::randn({3, 4}, rng), 104);
}

TEST(Gradients, ResidualBlock) {
  Rng rng(6);
  auto inner = std::make_unique<Sequential>();
  inner->add(std::make_unique<LayerNorm>(5));
  inner->add(std::make_unique<Linear>(5, 5, rng));
  Residual block(std::move(inner));
  check_gradients(block, Tensor::randn({4, 5}, rng), 105);
}

// Parameterized sweep across batch sizes and widths for Linear.
class LinearGradientSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LinearGradientSweep, MatchesFiniteDifferences) {
  const auto [batch, in, out] = GetParam();
  Rng rng(static_cast<std::uint64_t>(batch * 289 + in * 17 + out));
  Linear layer(static_cast<std::size_t>(in), static_cast<std::size_t>(out),
               rng);
  check_gradients(layer,
                  Tensor::randn({static_cast<std::size_t>(batch),
                                 static_cast<std::size_t>(in)},
                                rng),
                  200);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LinearGradientSweep,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{1, 7, 2},
                                           std::tuple{5, 3, 3},
                                           std::tuple{8, 2, 9},
                                           std::tuple{2, 16, 4}));

// ------------------------------------------------------------- Modules ---

TEST(Linear, ForwardMatchesManualAffine) {
  Rng rng(7);
  Linear layer(2, 2, rng);
  layer.weight().value = Tensor::matrix({{1, 2}, {3, 4}});
  layer.bias().value = Tensor::vector({10, 20});
  Tensor y = layer.forward(Tensor::matrix({{1, 1}}), false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 14.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 26.0f);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(8);
  Linear layer(3, 2, rng);
  EXPECT_THROW(layer.forward(Tensor::zeros({2, 4})), std::invalid_argument);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(9);
  Linear layer(2, 2, rng);
  EXPECT_THROW(layer.backward(Tensor::zeros({1, 2})), std::logic_error);
}

TEST(Linear, BackwardAccumulatesAcrossCalls) {
  Rng rng(10);
  Linear layer(2, 2, rng);
  Tensor x = Tensor::randn({3, 2}, rng);
  Tensor g = Tensor::randn({3, 2}, rng);
  layer.forward(x, true);
  layer.backward(g);
  Tensor first = layer.weight().grad;
  layer.forward(x, true);
  layer.backward(g);
  Tensor doubled = tensor::scale(first, 2.0f);
  EXPECT_LT(tensor::max_abs_difference(layer.weight().grad, doubled), 1e-5f);
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(11);
  LayerNorm layer(8);
  Tensor y = layer.forward(Tensor::randn({4, 8}, rng, 5.0f, 3.0f), false);
  for (std::size_t r = 0; r < 4; ++r) {
    double mu = 0.0, var = 0.0;
    for (std::size_t c = 0; c < 8; ++c) mu += y.at(r, c);
    mu /= 8.0;
    for (std::size_t c = 0; c < 8; ++c) {
      var += (y.at(r, c) - mu) * (y.at(r, c) - mu);
    }
    var /= 8.0;
    EXPECT_NEAR(mu, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNorm, RejectsBadConstruction) {
  EXPECT_THROW(LayerNorm(0), std::invalid_argument);
  EXPECT_THROW(LayerNorm(4, -1.0f), std::invalid_argument);
}

TEST(Residual, IdentityWhenInnerIsZero) {
  Rng rng(12);
  auto inner = std::make_unique<Linear>(3, 3, rng);
  inner->weight().value.zero();
  inner->bias().value.zero();
  Residual block(std::move(inner));
  Tensor x = Tensor::randn({2, 3}, rng);
  Tensor y = block.forward(x, false);
  EXPECT_LT(tensor::max_abs_difference(x, y), 1e-6f);
}

TEST(Residual, RejectsShapeChangingInner) {
  Rng rng(13);
  Residual block(std::make_unique<Linear>(3, 4, rng));
  EXPECT_THROW(block.forward(Tensor::zeros({2, 3})), std::invalid_argument);
}

TEST(Sequential, EmptyActsAsIdentity) {
  Sequential seq;
  Tensor x = Tensor::matrix({{1, 2}});
  EXPECT_LT(tensor::max_abs_difference(seq.forward(x), x), 1e-6f);
}

TEST(Sequential, CollectsParametersInOrder) {
  Rng rng(14);
  Sequential seq;
  seq.add(std::make_unique<Linear>(2, 3, rng, "a"));
  seq.add(std::make_unique<Relu>());
  seq.add(std::make_unique<Linear>(3, 1, rng, "b"));
  const auto params = seq.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->name, "a.weight");
  EXPECT_EQ(params[3]->name, "b.bias");
  EXPECT_EQ(seq.parameter_count(), 2u * 3 + 3 + 3 * 1 + 1);
}

TEST(Module, CloneIsDeepCopy) {
  Rng rng(15);
  Linear layer(2, 2, rng);
  auto copy = layer.clone();
  // Same values...
  EXPECT_EQ(tensor::max_abs_difference(flatten_parameters(layer.parameters()),
                                       flatten_parameters(copy->parameters())),
            0.0f);
  // ...but independent storage.
  layer.weight().value[0] += 1.0f;
  EXPECT_NE(flatten_parameters(layer.parameters())[0],
            flatten_parameters(copy->parameters())[0]);
}

TEST(Module, FlattenUnflattenRoundTrip) {
  Rng rng(16);
  Sequential seq;
  seq.add(std::make_unique<Linear>(3, 4, rng));
  seq.add(std::make_unique<LayerNorm>(4));
  Tensor flat = flatten_parameters(seq.parameters());
  Tensor perturbed = tensor::add_scalar(flat, 0.5f);
  unflatten_parameters(perturbed, seq.parameters());
  EXPECT_LT(tensor::max_abs_difference(
                flatten_parameters(seq.parameters()), perturbed),
            1e-6f);
  EXPECT_THROW(unflatten_parameters(Tensor::zeros({3}), seq.parameters()),
               std::invalid_argument);
}

// ---------------------------------------------------- forward_eval_into ---

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Checks Module::forward_eval_into's contract on `module` with [rows, width]
/// inputs:
///   (a) written into a reused, pre-dirtied `out` of the wrong shape, it gives
///       the bits forward(x, /*train=*/false) returns;
///   (b) called between forward(x, true) and backward(g) on an input of a
///       different batch size, it leaves the input gradient and every
///       parameter gradient bit for bit as they are without it.
void expect_eval_into_contract(Module& module, std::size_t width,
                               std::uint64_t seed) {
  Rng rng(seed);
  // Random parameters, so LayerNorm's gamma/beta are not the identity.
  for (Parameter* p : module.parameters()) {
    p->value = Tensor::randn(p->value.shape(), rng);
  }
  const Tensor x = Tensor::randn({5, width}, rng);
  const Tensor other = Tensor::randn({3, width}, rng);

  Tensor out = Tensor::full({7, width + 2}, std::nanf(""));
  for (const Tensor* in : {&x, &other, &x}) {
    module.forward_eval_into(*in, out);
    EXPECT_TRUE(bitwise_equal(out, module.forward(*in, /*train=*/false)))
        << "input " << in->shape_string();
  }

  std::unique_ptr<Module> twin = module.clone();
  module.zero_grad();
  const Tensor y = module.forward(x, /*train=*/true);
  const Tensor g = Tensor::randn(y.shape(), rng);
  const Tensor dx = module.backward(g);

  twin->forward(x, /*train=*/true);
  Tensor eval_out;
  twin->forward_eval_into(other, eval_out);
  EXPECT_TRUE(bitwise_equal(twin->backward(g), dx));
  const std::vector<Parameter*> params = module.parameters();
  const std::vector<Parameter*> twin_params = twin->parameters();
  ASSERT_EQ(params.size(), twin_params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(twin_params[i]->grad, params[i]->grad))
        << params[i]->name;
  }
}

TEST(ForwardEvalInto, Relu) {
  Relu layer;
  expect_eval_into_contract(layer, 6, 110);
}

TEST(ForwardEvalInto, Linear) {
  Rng rng(111);
  Linear layer(6, 4, rng);
  expect_eval_into_contract(layer, 6, 112);
}

TEST(ForwardEvalInto, LayerNorm) {
  LayerNorm layer(6);
  expect_eval_into_contract(layer, 6, 113);
}

TEST(ForwardEvalInto, Residual) {
  Rng rng(114);
  auto inner = std::make_unique<Sequential>();
  inner->add(std::make_unique<LayerNorm>(6));
  inner->add(std::make_unique<Linear>(6, 6, rng));
  inner->add(std::make_unique<Relu>());
  inner->add(std::make_unique<Linear>(6, 6, rng));
  Residual block(std::move(inner));
  expect_eval_into_contract(block, 6, 115);
}

TEST(ForwardEvalInto, Sequential) {
  Rng rng(116);
  Sequential seq;
  seq.add(std::make_unique<Linear>(6, 8, rng));
  seq.add(std::make_unique<Relu>());
  seq.add(std::make_unique<LayerNorm>(8));
  seq.add(std::make_unique<Linear>(8, 3, rng));
  expect_eval_into_contract(seq, 6, 117);
}

TEST(ForwardEvalInto, EveryArchBody) {
  for (const std::string& arch : known_archs()) {
    SCOPED_TRACE(arch);
    Rng rng(118);
    Classifier model = make_classifier(arch, 16, 10, rng);
    expect_eval_into_contract(model.body(), 16, 119);
  }
}

// -------------------------------------------------------------- Losses ---

TEST(Loss, CrossEntropyPerfectPredictionNearZero) {
  Tensor logits({2, 3}, {20, 0, 0, 0, 20, 0});
  const std::vector<int> labels{0, 1};
  const auto r = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.value, 0.0f, 1e-4f);
}

TEST(Loss, CrossEntropyUniformLogitsIsLogN) {
  Tensor logits = Tensor::zeros({4, 10});
  const std::vector<int> labels{0, 3, 7, 9};
  const auto r = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.value, std::log(10.0f), 1e-4f);
}

TEST(Loss, CrossEntropyGradientMatchesFiniteDifference) {
  Rng rng(17);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<int> labels{1, 0, 3};
  const auto r = softmax_cross_entropy(logits, labels);
  constexpr float kEps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor up = logits, down = logits;
    up[i] += kEps;
    down[i] -= kEps;
    const float numeric = (softmax_cross_entropy(up, labels).value -
                           softmax_cross_entropy(down, labels).value) /
                          (2 * kEps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-2f);
  }
}

TEST(Loss, CrossEntropyValidation) {
  Tensor logits = Tensor::zeros({2, 3});
  const std::vector<int> short_labels{0};
  EXPECT_THROW(softmax_cross_entropy(logits, short_labels),
               std::invalid_argument);
  const std::vector<int> bad_labels{0, 5};
  EXPECT_THROW(softmax_cross_entropy(logits, bad_labels),
               std::invalid_argument);
}

TEST(Loss, SoftCrossEntropyMatchesHardWhenOneHot) {
  Rng rng(18);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<int> labels{2, 0, 1};
  const auto hard = softmax_cross_entropy(logits, labels);
  const auto soft = soft_cross_entropy(logits, Tensor::one_hot(labels, 4));
  EXPECT_NEAR(hard.value, soft.value, 1e-5f);
  EXPECT_LT(tensor::max_abs_difference(hard.grad, soft.grad), 1e-6f);
}

TEST(Loss, KlDistillationZeroAtTeacherMatch) {
  Rng rng(19);
  Tensor logits = Tensor::randn({4, 5}, rng);
  const Tensor teacher = tensor::softmax_rows(logits);
  const auto r = kl_distillation(logits, teacher);
  EXPECT_NEAR(r.value, 0.0f, 1e-5f);
  EXPECT_LT(tensor::max(r.grad), 1e-5f);
}

TEST(Loss, KlDistillationGradientMatchesFiniteDifference) {
  Rng rng(20);
  Tensor logits = Tensor::randn({2, 3}, rng);
  Tensor teacher = tensor::softmax_rows(Tensor::randn({2, 3}, rng));
  const float temperature = 2.0f;
  const auto r = kl_distillation(logits, teacher, temperature);
  constexpr float kEps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor up = logits, down = logits;
    up[i] += kEps;
    down[i] -= kEps;
    const float numeric =
        (kl_distillation(up, teacher, temperature).value -
         kl_distillation(down, teacher, temperature).value) /
        (2 * kEps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-2f);
  }
}

TEST(Loss, KlDistillationValidation) {
  Tensor logits = Tensor::zeros({2, 3});
  EXPECT_THROW(kl_distillation(logits, Tensor::zeros({2, 4})),
               std::invalid_argument);
  EXPECT_THROW(kl_distillation(logits, logits, 0.0f), std::invalid_argument);
}

TEST(Loss, MseKnownValueAndGradient) {
  Tensor pred({2}, {1, 3});
  Tensor target({2}, {0, 0});
  const auto r = mse(pred, target);
  EXPECT_FLOAT_EQ(r.value, 5.0f);  // (1 + 9) / 2
  EXPECT_FLOAT_EQ(r.grad[0], 1.0f);
  EXPECT_FLOAT_EQ(r.grad[1], 3.0f);
  EXPECT_THROW(mse(pred, Tensor::zeros({3})), std::invalid_argument);
}

TEST(Loss, AccuracyCounting) {
  Tensor logits({3, 2}, {1, 0, 0, 1, 1, 0});
  const std::vector<int> labels{0, 1, 1};
  EXPECT_NEAR(accuracy(logits, labels), 2.0f / 3.0f, 1e-6f);
}

TEST(Loss, PerClassAccuracy) {
  Tensor logits({4, 2}, {1, 0, 1, 0, 0, 1, 0, 1});
  const std::vector<int> labels{0, 1, 1, 1};
  const auto r = per_class_accuracy(logits, labels, 2);
  EXPECT_FLOAT_EQ(r.accuracy[0], 1.0f);
  EXPECT_NEAR(r.accuracy[1], 2.0f / 3.0f, 1e-6f);
  EXPECT_EQ(r.counts[0], 1u);
  EXPECT_EQ(r.counts[1], 3u);
}

// ----------------------------------------------------------- Optimizers ---

TEST(Optimizer, AdamFirstStepIsLrSized) {
  // With bias correction, |first Adam step| ~= lr regardless of grad scale.
  Rng rng(24);
  Linear layer(1, 1, rng);
  layer.weight().value[0] = 0.0f;
  Adam adam(layer.parameters(), {.lr = 0.01f});
  layer.weight().grad[0] = 123.0f;
  layer.bias().grad[0] = 0.0f;
  adam.step();
  EXPECT_NEAR(layer.weight().value[0], -0.01f, 1e-4f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimize (w - 3)^2 by hand-feeding gradients.
  Rng rng(25);
  Linear layer(1, 1, rng);
  layer.weight().value[0] = 0.0f;
  Adam adam(layer.parameters(), {.lr = 0.1f});
  for (int i = 0; i < 500; ++i) {
    adam.zero_grad();
    layer.weight().grad[0] = 2.0f * (layer.weight().value[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(layer.weight().value[0], 3.0f, 0.05f);
}

/// Adam::step's scalar loop as it stood before the AVX pass, kept verbatim
/// (only the member names differ) as the bitwise reference.
class ReferenceAdam {
 public:
  ReferenceAdam(std::vector<Parameter*> params, Adam::Options opts)
      : params_(std::move(params)), opts_(opts) {
    for (const Parameter* p : params_) {
      m_.emplace_back(p->value.shape());
      v_.emplace_back(p->value.shape());
    }
  }

  void step() {
    ++t_;
    const float bc1 = 1.0f - std::pow(opts_.beta1, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(opts_.beta2, static_cast<float>(t_));
    for (std::size_t i = 0; i < params_.size(); ++i) {
      Parameter& p = *params_[i];
      Tensor& m = m_[i];
      Tensor& v = v_[i];
      for (std::size_t k = 0; k < p.numel(); ++k) {
        const float g = p.grad[k] + opts_.weight_decay * p.value[k];
        m[k] = opts_.beta1 * m[k] + (1.0f - opts_.beta1) * g;
        v[k] = opts_.beta2 * v[k] + (1.0f - opts_.beta2) * g * g;
        const float mhat = m[k] / bc1;
        const float vhat = v[k] / bc2;
        p.value[k] -= opts_.lr * mhat / (std::sqrt(vhat) + opts_.eps);
      }
    }
  }

 private:
  std::vector<Parameter*> params_;
  Adam::Options opts_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::int64_t t_ = 0;
};

/// Runs Adam and ReferenceAdam side by side for five steps on two parameter
/// sets with equal values, feeding both the same fresh gradients each step,
/// and checks the weights stay bitwise equal.
void expect_adam_matches_reference(const std::vector<Parameter*>& fast,
                                   const std::vector<Parameter*>& reference,
                                   Adam::Options opts, std::uint64_t seed) {
  ASSERT_EQ(fast.size(), reference.size());
  Adam adam(fast, opts);
  ReferenceAdam ref(reference, opts);
  Rng rng(seed);
  for (int step = 0; step < 5; ++step) {
    for (std::size_t i = 0; i < fast.size(); ++i) {
      for (std::size_t k = 0; k < fast[i]->numel(); ++k) {
        const float g = static_cast<float>(rng.normal());
        fast[i]->grad[k] = g;
        reference[i]->grad[k] = g;
      }
    }
    adam.step();
    ref.step();
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(std::memcmp(fast[i]->value.data(), reference[i]->value.data(),
                            fast[i]->numel() * sizeof(float)),
                0)
          << "step " << step << " parameter " << i << " ("
          << fast[i]->numel() << " weights)";
    }
  }
}

TEST(Optimizer, AdamMatchesScalarReferenceBitwiseOnRaggedSizes) {
  // 1, 7 and 9 weights and 8k+3: the vector body, the scalar tail, and both.
  for (float weight_decay : {0.0f, 0.01f}) {
    Rng rng(27);
    std::vector<Parameter> fast, reference;
    for (std::size_t numel : {1u, 7u, 8u, 9u, 8u * 12u + 3u, 16u}) {
      const Tensor init = Tensor::randn({numel}, rng);
      fast.emplace_back("p", init);
      reference.emplace_back("p", init);
    }
    std::vector<Parameter*> fast_ptrs, reference_ptrs;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      fast_ptrs.push_back(&fast[i]);
      reference_ptrs.push_back(&reference[i]);
    }
    expect_adam_matches_reference(
        fast_ptrs, reference_ptrs,
        {.lr = 0.003f, .beta1 = 0.8f, .beta2 = 0.99f, .eps = 1e-6f,
         .weight_decay = weight_decay},
        31);
  }
}

TEST(Optimizer, AdamMatchesScalarReferenceBitwiseOnResmlp56) {
  // The server model's full parameter set, at the default options and with
  // weight decay.
  for (float weight_decay : {0.0f, 5e-4f}) {
    Rng fast_rng(29), reference_rng(29);
    Classifier fast = make_classifier("resmlp56", 48, 10, fast_rng);
    Classifier reference = make_classifier("resmlp56", 48, 10, reference_rng);
    expect_adam_matches_reference(fast.parameters(), reference.parameters(),
                                  {.weight_decay = weight_decay}, 37);
  }
}

TEST(Optimizer, ValidatesOptions) {
  Rng rng(26);
  Linear layer(1, 1, rng);
  EXPECT_THROW(Adam(layer.parameters(), {.lr = -1.0f}), std::invalid_argument);
  EXPECT_THROW(Adam(layer.parameters(), {.lr = 0.1f, .beta1 = 1.0f}),
               std::invalid_argument);
}

TEST(Optimizer, ZeroGradClears) {
  Rng rng(27);
  Linear layer(2, 2, rng);
  layer.weight().grad.fill(5.0f);
  Adam adam(layer.parameters());
  adam.zero_grad();
  EXPECT_EQ(tensor::max(layer.weight().grad), 0.0f);
}

TEST(Optimizer, ProximalGradientPullsTowardReference) {
  Rng rng(28);
  Linear layer(1, 1, rng);
  layer.weight().value[0] = 2.0f;
  layer.bias().value[0] = -1.0f;
  Tensor reference({2});  // zeros
  layer.zero_grad();
  add_proximal_gradient(layer.parameters(), reference, 0.5f);
  EXPECT_NEAR(layer.weight().grad[0], 1.0f, 1e-6f);   // 0.5 * (2 - 0)
  EXPECT_NEAR(layer.bias().grad[0], -0.5f, 1e-6f);
  EXPECT_THROW(
      add_proximal_gradient(layer.parameters(), Tensor::zeros({5}), 0.1f),
      std::invalid_argument);
}

// ----------------------------------------------------------- Classifier ---

TEST(Classifier, FeatureAndLogitShapes) {
  Rng rng(29);
  Classifier model = make_classifier("resmlp20", 16, 10, rng);
  Tensor x = Tensor::randn({5, 16}, rng);
  Tensor f = model.features(x, false);
  EXPECT_EQ(f.rows(), 5u);
  EXPECT_EQ(f.cols(), kFeatureDim);
  Tensor z = model.forward(x, false);
  EXPECT_EQ(z.cols(), 10u);
  EXPECT_EQ(model.feature_dim(), kFeatureDim);
  EXPECT_EQ(model.num_classes(), 10u);
  EXPECT_EQ(model.input_dim(), 16u);
}

TEST(Classifier, RejectsWrongInputDim) {
  Rng rng(30);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  EXPECT_THROW(model.forward(Tensor::zeros({2, 9})), std::invalid_argument);
}

TEST(Classifier, BackwardRequiresHeadForward) {
  Rng rng(31);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  model.features(Tensor::zeros({2, 8}), true);  // body only
  EXPECT_THROW(model.backward(Tensor::zeros({2, 4})), std::logic_error);
}

TEST(Classifier, CloneIndependent) {
  Rng rng(32);
  Classifier a = make_classifier("resmlp11", 8, 4, rng);
  Classifier b = a.clone();
  EXPECT_EQ(tensor::max_abs_difference(a.flat_weights(), b.flat_weights()),
            0.0f);
  Tensor w = a.flat_weights();
  w[0] += 1.0f;
  a.set_flat_weights(w);
  EXPECT_NE(a.flat_weights()[0], b.flat_weights()[0]);
}

TEST(Classifier, FlatWeightsRoundTrip) {
  Rng rng(33);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  Tensor w = model.flat_weights();
  EXPECT_EQ(w.numel(), model.parameter_count());
  Classifier other = make_classifier("resmlp11", 8, 4, rng);
  other.set_flat_weights(w);
  EXPECT_EQ(tensor::max_abs_difference(other.flat_weights(), w), 0.0f);
}

TEST(Classifier, ExtraFeatureGradientChangesBodyGrads) {
  Rng rng(34);
  Classifier model = make_classifier("resmlp11", 8, 4, rng);
  Tensor x = Tensor::randn({3, 8}, rng);

  model.forward(x, true);
  model.zero_grad();
  Tensor zero_glogits = Tensor::zeros({3, 4});
  Tensor extra = Tensor::ones({3, kFeatureDim});
  model.backward(zero_glogits, &extra);
  // With zero logits grad the head got no gradient but the body did.
  const auto params = model.parameters();
  float body_grad_mag = 0.0f;
  for (std::size_t i = 0; i + 2 < params.size(); ++i) {
    body_grad_mag += tensor::squared_norm(params[i]->grad);
  }
  EXPECT_GT(body_grad_mag, 0.0f);
  // Head weight grad is exactly zero.
  EXPECT_EQ(tensor::squared_norm(params[params.size() - 2]->grad), 0.0f);
}

// -------------------------------------------------------------- ModelZoo ---

TEST(ModelZoo, KnownArchsOrderedByCapacity) {
  Rng rng(35);
  std::size_t previous = 0;
  for (const std::string& arch : known_archs()) {
    Classifier model = make_classifier(arch, 32, 10, rng);
    EXPECT_GT(model.parameter_count(), previous) << arch;
    previous = model.parameter_count();
    EXPECT_EQ(model.arch(), arch);
    EXPECT_EQ(model.feature_dim(), kFeatureDim);
  }
}

TEST(ModelZoo, UnknownArchThrows) {
  Rng rng(36);
  EXPECT_THROW(make_classifier("resnet20", 8, 4, rng), std::invalid_argument);
  EXPECT_THROW(arch_spec(""), std::invalid_argument);
}

TEST(ModelZoo, DeterministicInitialization) {
  Rng a(77), b(77);
  Classifier m1 = make_classifier("resmlp20", 16, 10, a);
  Classifier m2 = make_classifier("resmlp20", 16, 10, b);
  EXPECT_EQ(tensor::max_abs_difference(m1.flat_weights(), m2.flat_weights()),
            0.0f);
}

TEST(ModelZoo, ForwardIsFiniteAtInit) {
  Rng rng(37);
  for (const std::string& arch : known_archs()) {
    Classifier model = make_classifier(arch, 32, 10, rng);
    Tensor x = Tensor::randn({16, 32}, rng, 0.0f, 2.0f);
    Tensor z = model.forward(x, false);
    EXPECT_FALSE(tensor::has_non_finite(z)) << arch;
  }
}

TEST(ModelZoo, CustomResMlp) {
  Rng rng(38);
  Classifier model = make_resmlp("tiny", 8, 3, 1, 16, rng);
  EXPECT_EQ(model.arch(), "tiny");
  EXPECT_EQ(model.num_classes(), 3u);
  EXPECT_THROW(make_resmlp("bad", 0, 3, 1, 16, rng), std::invalid_argument);
}

TEST(ModelZoo, GradientCheckTinyModelEndToEnd) {
  // Full classifier (body + head) against finite differences via the CE loss.
  Rng rng(39);
  Classifier model = make_resmlp("gradcheck", 5, 3, 1, 8, rng);
  Tensor x = Tensor::randn({4, 5}, rng);
  const std::vector<int> y{0, 2, 1, 1};

  Tensor logits = model.forward(x, true);
  model.zero_grad();
  const auto loss = softmax_cross_entropy(logits, y);
  model.backward(loss.grad);

  constexpr float kEps = 1e-2f;
  const auto params = model.parameters();
  for (Parameter* p : params) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->numel(), 5); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + kEps;
      const float up =
          softmax_cross_entropy(model.forward(x, false), y).value;
      p->value[i] = saved - kEps;
      const float down =
          softmax_cross_entropy(model.forward(x, false), y).value;
      p->value[i] = saved;
      const float numeric = (up - down) / (2 * kEps);
      EXPECT_NEAR(p->grad[i], numeric, 5e-2f) << p->name << "[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace fedpkd::nn
