#include "fedpkd/fl/fedavg.hpp"

#include <stdexcept>

#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/tensor/ops.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::fl {

FedAvg::FedAvg(Federation& fed, Options options)
    : options_(options), global_(fed.client(0).model.clone()) {
  const std::vector<std::string> archs = fed.distinct_archs();
  if (archs.size() != 1) {
    throw std::invalid_argument(
        "FedAvg: requires homogeneous client architectures, got " +
        archs.front() + " vs " + archs.back());
  }
}

std::optional<PayloadBundle> FedAvg::make_broadcast(RoundContext&) {
  return PayloadBundle(comm::WeightsPayload{global_.flat_weights()});
}

void FedAvg::local_update(RoundContext& ctx, std::size_t i, Client& client) {
  // A missing bundle = dropped broadcast: the client trains from its stale
  // weights (Eq. 4), optionally with the FedProx proximal term against the
  // weights the round started from.
  if (const WireBundle* wire = ctx.broadcast(i)) {
    client.model.set_flat_weights(wire->weights().flat);
  }
  TrainOptions opts;
  opts.epochs = options_.local_epochs;
  opts.proximal_mu = options_.proximal_mu;
  client.train_local(opts);
}

PayloadBundle FedAvg::make_upload(RoundContext&, std::size_t, Client& client) {
  return PayloadBundle(comm::WeightsPayload{client.model.flat_weights()});
}

void FedAvg::server_step(RoundContext& ctx,
                         std::vector<Contribution>& contributions) {
  if (ctx.fed.robust.rule != robust::RobustAggregation::kNone) {
    // Byzantine-robust weight-space aggregation: the configured estimator
    // replaces the |D_c|-weighted mean (data sizes stay as importance
    // weights where the estimator honors them).
    std::vector<tensor::Tensor> updates;
    std::vector<float> weights;
    updates.reserve(contributions.size());
    weights.reserve(contributions.size());
    for (const Contribution& c : contributions) {
      updates.push_back(c.bundle.weights().flat);
      weights.push_back(c.weight);
    }
    robust::CombineResult combined =
        robust::robust_combine(ctx.fed.robust, updates, weights);
    if (ctx.faults != nullptr) {
      ctx.faults->clipped_contributions += combined.clipped;
    }
    global_.set_flat_weights(combined.value);
    return;
  }
  // w_G = sum_c |D_c| w_c / sum |D_c| over the contributions that survived
  // the uplink, accumulated in slot order so the result is thread-count
  // independent.
  tensor::Tensor accum({global_.parameter_count()});
  float received_weight = 0.0f;
  for (const Contribution& c : contributions) {
    tensor::axpy_inplace(accum, c.weight, c.bundle.weights().flat);
    received_weight += c.weight;
  }
  if (received_weight == 0.0f) return;
  tensor::scale_inplace(accum, 1.0f / received_weight);
  global_.set_flat_weights(accum);
}

void FedAvg::persist(tensor::StateIo& io) { nn::persist_weights(io, global_); }

}  // namespace fedpkd::fl
