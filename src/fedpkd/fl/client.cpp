#include "fedpkd/fl/client.hpp"

namespace fedpkd::fl {

TrainStats Client::train_local(TrainOptions options) {
  options.batch_size = config.batch_size;
  options.lr = config.lr;
  return train_supervised(model, train_data, options, rng);
}

TrainStats Client::digest(const DistillSet& set, float gamma,
                          TrainOptions options, float temperature) {
  options.batch_size = config.batch_size;
  options.lr = config.lr;
  return train_distill(model, set, gamma, options, rng, temperature);
}

tensor::Tensor Client::logits_on(const tensor::Tensor& inputs) {
  return compute_logits(model, inputs);
}

}  // namespace fedpkd::fl
