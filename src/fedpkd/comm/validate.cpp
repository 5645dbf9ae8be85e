#include "fedpkd/comm/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::comm {

namespace {

bool all_finite(const tensor::Tensor& t) {
  const float* data = t.data();
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

double l2_norm(const tensor::Tensor& t) {
  const float* data = t.data();
  double sum = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    sum += static_cast<double>(data[i]) * static_cast<double>(data[i]);
  }
  return std::sqrt(sum);
}

double max_abs(const tensor::Tensor& t) {
  const float* data = t.data();
  double m = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double a = std::fabs(static_cast<double>(data[i]));
    if (a > m) m = a;
  }
  return m;
}

std::optional<std::string> validate_weights(
    const std::vector<std::byte>& bytes, const std::vector<std::byte>* ref,
    const ValidationPolicy& policy) {
  const WeightsPayload payload = decode_weights(bytes);
  if (policy.check_finite && !all_finite(payload.flat)) {
    return "weights contain non-finite values";
  }
  if (policy.max_weights_norm > 0.0 &&
      l2_norm(payload.flat) > policy.max_weights_norm) {
    return "weights norm exceeds bound";
  }
  if (ref != nullptr) {
    const WeightsPayload other = decode_weights(*ref);
    if (payload.flat.numel() != other.flat.numel()) {
      return "weights shape disagrees with accepted contributions";
    }
  }
  return std::nullopt;
}

std::optional<std::string> validate_logits(
    const std::vector<std::byte>& bytes, const std::vector<std::byte>* ref,
    const ValidationPolicy& policy) {
  const LogitsPayload payload = decode_logits(bytes);
  if (policy.check_finite && !all_finite(payload.logits)) {
    return "logits contain non-finite values";
  }
  if (policy.max_logit_abs > 0.0 &&
      max_abs(payload.logits) > policy.max_logit_abs) {
    return "logit magnitude exceeds bound";
  }
  if (ref != nullptr) {
    const LogitsPayload other = decode_logits(*ref);
    if (payload.logits.rows() != other.logits.rows() ||
        payload.logits.cols() != other.logits.cols()) {
      return "logits shape disagrees with accepted contributions";
    }
  }
  return std::nullopt;
}

std::optional<std::string> validate_prototypes(
    const std::vector<std::byte>& bytes, const std::vector<std::byte>* ref,
    const ValidationPolicy& policy) {
  const PrototypesPayload payload = decode_prototypes(bytes);
  std::size_t feature_dim = 0;
  for (const PrototypeEntry& e : payload.entries) {
    if (e.class_id < 0) return "prototype class id is negative";
    if (policy.check_finite && !all_finite(e.centroid)) {
      return "prototype centroid contains non-finite values";
    }
    if (feature_dim == 0) {
      feature_dim = e.centroid.numel();
    } else if (e.centroid.numel() != feature_dim) {
      return "prototype feature dimensions disagree within bundle";
    }
  }
  if (ref != nullptr && feature_dim != 0) {
    const PrototypesPayload other = decode_prototypes(*ref);
    if (!other.entries.empty() &&
        other.entries.front().centroid.numel() != feature_dim) {
      return "prototype feature dimension disagrees with accepted "
             "contributions";
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> validate_bundle(
    const std::vector<std::vector<std::byte>>& parts,
    const std::vector<std::vector<std::byte>>* reference,
    const ValidationPolicy& policy) {
  if (reference != nullptr && parts.size() != reference->size()) {
    return "part count disagrees with accepted contributions";
  }
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::vector<std::byte>* ref =
        reference != nullptr ? &(*reference)[p] : nullptr;
    try {
      const PayloadKind kind = peek_kind(parts[p]);
      if (ref != nullptr && peek_kind(*ref) != kind) {
        return "part kind disagrees with accepted contributions";
      }
      std::optional<std::string> reason;
      switch (kind) {
        case PayloadKind::kWeights:
          reason = validate_weights(parts[p], ref, policy);
          break;
        case PayloadKind::kLogits:
          reason = validate_logits(parts[p], ref, policy);
          break;
        case PayloadKind::kPrototypes:
          reason = validate_prototypes(parts[p], ref, policy);
          break;
      }
      if (reason) return reason;
    } catch (const tensor::DecodeError& e) {
      return std::string("undecodable part: ") + e.what();
    }
  }
  return std::nullopt;
}

namespace {

double median_sorted_copy(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace

void WeightNormTracker::record(double norm) {
  if (!std::isfinite(norm) || norm < 0.0) return;
  history_.push_back(norm);
  if (history_.size() > kMaxHistory) {
    history_.erase(history_.begin(),
                   history_.begin() +
                       static_cast<std::ptrdiff_t>(history_.size() -
                                                   kMaxHistory));
  }
}

double WeightNormTracker::bound_or(double fallback, double factor,
                                   std::size_t min_history) const {
  if (history_.size() < min_history || min_history == 0) return fallback;
  const double med = median_sorted_copy(history_);
  std::vector<double> deviations(history_.size());
  for (std::size_t i = 0; i < history_.size(); ++i) {
    deviations[i] = std::fabs(history_[i] - med);
  }
  const double mad = median_sorted_copy(std::move(deviations));
  const double spread = std::max({mad, 0.01 * med, 1e-9});
  return med + factor * spread;
}

void WeightNormTracker::persist(tensor::StateIo& io) {
  io.seq(history_, 8, "WeightNormTracker history",
         [&](double& norm) { io.f64(norm); });
}

double weights_part_norm(std::span<const std::byte> part) {
  return l2_norm(decode_weights(part).flat);
}

}  // namespace fedpkd::comm
