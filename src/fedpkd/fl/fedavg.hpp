#pragma once

#include <optional>

#include "fedpkd/fl/round_pipeline.hpp"

namespace fedpkd::fl {

/// FedAvg (McMahan et al. 2017): the classic parameter-averaging baseline.
///
/// Each round on the staged pipeline: make_broadcast ships the global
/// weights, local_update runs `local_epochs` of supervised training on each
/// client's private data, make_upload returns the trained weights, and
/// server_step replaces the global model with the data-size-weighted average
/// (Eq. 1). Requires all clients and the server to share one architecture —
/// the constructor enforces this, which is exactly the system-heterogeneity
/// limitation the paper is attacking.
class FedAvg : public StagedAlgorithm {
 public:
  struct Options {
    std::size_t local_epochs = 10;  // paper: e_{c,tr}=10 for FedAvg/FedProx
    /// FedProx proximal coefficient; nullopt = plain FedAvg.
    std::optional<float> proximal_mu;
  };

  FedAvg(Federation& fed, Options options);

  std::string name() const override { return proximal_name_; }
  nn::Classifier* server_model() override { return &global_; }

  std::optional<PayloadBundle> make_broadcast(RoundContext& ctx) override;
  void local_update(RoundContext& ctx, std::size_t i, Client& client) override;
  PayloadBundle make_upload(RoundContext& ctx, std::size_t i,
                            Client& client) override;
  void server_step(RoundContext& ctx,
                   std::vector<Contribution>& contributions) override;

  /// Crash-resume: the only cross-round state is the global model (clients
  /// and RNG streams are checkpointed by the federation layer). FedProx
  /// inherits this unchanged.
  bool supports_resume() const override { return true; }
  void persist(tensor::StateIo& io) override;

 protected:
  void set_name(std::string name) { proximal_name_ = std::move(name); }

 private:
  Options options_;
  nn::Classifier global_;
  std::string proximal_name_ = "FedAvg";
};

}  // namespace fedpkd::fl
