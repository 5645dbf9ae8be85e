#include "fedpkd/robust/attack.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "fedpkd/tensor/rng.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::robust {

namespace {

void scale_tensor(tensor::Tensor& t, float factor) {
  float* x = t.data();
  for (std::size_t i = 0; i < t.numel(); ++i) x[i] *= factor;
}

void scale_parts(std::vector<comm::Payload>& parts, float factor) {
  for (comm::Payload& part : parts) {
    std::visit(
        [factor](auto& p) {
          using T = std::decay_t<decltype(p)>;
          if constexpr (std::is_same_v<T, comm::WeightsPayload>) {
            scale_tensor(p.flat, factor);
          } else if constexpr (std::is_same_v<T, comm::LogitsPayload>) {
            scale_tensor(p.logits, factor);
          } else {
            for (comm::PrototypeEntry& entry : p.entries) {
              scale_tensor(entry.centroid, factor);
            }
          }
        },
        part);
  }
}

/// Fixed pseudo-random unit direction for one (seed, node, class) triple.
/// A fresh generator per call keeps the attack stateless: the same triple
/// always yields the same direction, independent of rounds executed, thread
/// count, or checkpoint resume.
void shift_centroid(tensor::Tensor& centroid, std::uint64_t seed,
                    comm::NodeId node, std::int32_t class_id, double scale) {
  const std::uint64_t node_salt =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) + 1) *
      0x100000001b3ull;
  const std::uint64_t class_salt =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(class_id)) + 1) *
      0x9e3779b97f4a7c15ull;
  tensor::Rng rng(seed ^ node_salt ^ class_salt);
  const std::size_t dim = centroid.numel();
  std::vector<double> direction(dim);
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    direction[i] = rng.normal();
    norm_sq += direction[i] * direction[i];
  }
  const double norm = std::sqrt(norm_sq);
  if (norm <= 0.0) return;  // astronomically unlikely; leave untouched
  float* x = centroid.data();
  for (std::size_t i = 0; i < dim; ++i) {
    x[i] = static_cast<float>(x[i] + scale * direction[i] / norm);
  }
}

}  // namespace

const char* to_string(AttackType type) {
  switch (type) {
    case AttackType::kSignFlip: return "sign-flip";
    case AttackType::kScaledBoost: return "scaled-boost";
    case AttackType::kLabelFlip: return "label-flip";
    case AttackType::kFreeRider: return "free-rider";
    case AttackType::kPrototypeShift: return "prototype-shift";
  }
  return "?";
}

AttackType parse_attack_type(std::string_view name) {
  if (name == "sign-flip") return AttackType::kSignFlip;
  if (name == "scaled-boost") return AttackType::kScaledBoost;
  if (name == "label-flip") return AttackType::kLabelFlip;
  if (name == "free-rider") return AttackType::kFreeRider;
  if (name == "prototype-shift") return AttackType::kPrototypeShift;
  throw std::invalid_argument("unknown attack type: " + std::string(name));
}

void flip_labels(std::vector<int>& labels, std::size_t num_classes) {
  const int top = static_cast<int>(num_classes) - 1;
  for (int& y : labels) y = top - y;
}

void AttackInjector::set_plan(AttackPlan plan) {
  std::map<comm::NodeId, const AdversarialClient*> by_node;
  for (const AdversarialClient& adversary : plan.adversaries) {
    if (!std::isfinite(adversary.scale)) {
      throw std::invalid_argument("AttackPlan: non-finite attack scale");
    }
    if (!by_node.emplace(adversary.node, &adversary).second) {
      throw std::invalid_argument(
          "AttackPlan: duplicate adversary node " +
          std::to_string(adversary.node));
    }
  }
  plan_ = std::move(plan);
  // Rebuild the pointers against the moved-into plan.
  by_node_.clear();
  for (const AdversarialClient& adversary : plan_.adversaries) {
    by_node_.emplace(adversary.node, &adversary);
  }
  replay_cache_.clear();
}

bool AttackInjector::is_adversary(comm::NodeId node) const {
  return by_node_.count(node) > 0;
}

bool AttackInjector::flips_labels(std::size_t round,
                                  comm::NodeId node) const {
  if (!active(round)) return false;
  auto it = by_node_.find(node);
  return it != by_node_.end() && it->second->type == AttackType::kLabelFlip;
}

bool AttackInjector::apply(std::size_t round, comm::NodeId node,
                           std::vector<comm::Payload>& parts) {
  if (!active(round)) return false;
  auto it = by_node_.find(node);
  if (it == by_node_.end()) return false;
  const AdversarialClient& adversary = *it->second;
  switch (adversary.type) {
    case AttackType::kSignFlip:
      scale_parts(parts, -1.0f);
      break;
    case AttackType::kScaledBoost:
      scale_parts(parts, static_cast<float>(adversary.scale));
      break;
    case AttackType::kLabelFlip:
      break;  // the poison is in the training labels, not the payload
    case AttackType::kFreeRider: {
      std::vector<std::vector<std::byte>> fresh;
      fresh.reserve(parts.size());
      for (const comm::Payload& part : parts) {
        fresh.push_back(comm::encode_payload(part));
      }
      auto cached = replay_cache_.find(node);
      if (cached != replay_cache_.end()) {
        auto replayed = comm::decode_parts(cached->second);
        if (replayed) parts = std::move(*replayed);
      }
      replay_cache_[node] = std::move(fresh);
      break;
    }
    case AttackType::kPrototypeShift:
      for (comm::Payload& part : parts) {
        if (auto* protos = std::get_if<comm::PrototypesPayload>(&part)) {
          for (comm::PrototypeEntry& entry : protos->entries) {
            shift_centroid(entry.centroid, plan_.seed, node, entry.class_id,
                          adversary.scale);
          }
        }
      }
      break;
  }
  return true;
}

void AttackInjector::persist(tensor::StateIo& io) {
  // Per node: u32 node id, u32 part count, then each part as a blob.
  const std::size_t nodes =
      io.count32(replay_cache_.size(), 8, "AttackInjector replay cache");
  io.entries(replay_cache_, nodes,
             [&](comm::NodeId& node,
                 std::vector<std::vector<std::byte>>& cached_parts) {
               io.i32(node);
               cached_parts.resize(io.count32(cached_parts.size(), 8,
                                              "AttackInjector cached parts"));
               for (std::vector<std::byte>& part : cached_parts) io.blob(part);
             });
}

}  // namespace fedpkd::robust
