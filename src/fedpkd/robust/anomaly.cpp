#include "fedpkd/robust/anomaly.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "fedpkd/robust/stats.hpp"

namespace fedpkd::robust {

namespace {

double median_of_doubles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Structural conformance of one client's decoded bundle against the cohort
/// reference: same part count, same kind per slot, same tensor shape for
/// weights and logits parts. Prototype parts may legitimately differ per
/// client (each holds only its local classes).
bool conforms(const std::vector<comm::Payload>& bundle,
              const std::vector<comm::Payload>& reference) {
  if (bundle.size() != reference.size()) return false;
  for (std::size_t p = 0; p < bundle.size(); ++p) {
    if (bundle[p].index() != reference[p].index()) return false;
    if (const auto* w = std::get_if<comm::WeightsPayload>(&bundle[p])) {
      const auto& ref = std::get<comm::WeightsPayload>(reference[p]);
      if (!w->flat.same_shape(ref.flat)) return false;
    } else if (const auto* l = std::get_if<comm::LogitsPayload>(&bundle[p])) {
      const auto& ref = std::get<comm::LogitsPayload>(reference[p]);
      if (!l->logits.same_shape(ref.logits)) return false;
    }
  }
  return true;
}

}  // namespace

std::vector<float> anomaly_scores(
    std::span<const std::vector<comm::Payload>> clients) {
  const std::size_t n = clients.size();
  std::vector<float> scores(n, kMalformedScore);
  if (n == 0) return scores;

  // Reference structure: the first non-empty bundle.
  const std::vector<comm::Payload>* reference = nullptr;
  for (const std::vector<comm::Payload>& bundle : clients) {
    if (!bundle.empty()) {
      reference = &bundle;
      break;
    }
  }
  if (reference == nullptr) return scores;

  std::vector<std::uint8_t> ok(n, 0);
  std::vector<std::size_t> conforming;
  for (std::size_t i = 0; i < n; ++i) {
    if (!clients[i].empty() && conforms(clients[i], *reference)) {
      ok[i] = 1;
      conforming.push_back(i);
    }
  }
  if (conforming.empty()) return scores;

  std::vector<double> sumsq(n, 0.0);     // vector channel accumulators
  std::vector<std::size_t> coords(n, 0);
  std::vector<double> proto_sum(n, 0.0);  // prototype channel accumulators
  std::vector<std::size_t> proto_classes(n, 0);

  for (std::size_t p = 0; p < reference->size(); ++p) {
    if (std::holds_alternative<comm::PrototypesPayload>((*reference)[p])) {
      // Prototype channel: per class, support-weighted geometric median over
      // clients holding that class; contributors measure RMS distance to it.
      struct Contribution {
        std::size_t client;
        const comm::PrototypeEntry* entry;
      };
      std::map<std::int32_t, std::vector<Contribution>> by_class;
      for (std::size_t i : conforming) {
        const auto& payload = std::get<comm::PrototypesPayload>(clients[i][p]);
        for (const comm::PrototypeEntry& entry : payload.entries) {
          by_class[entry.class_id].push_back(Contribution{i, &entry});
        }
      }
      for (const auto& [class_id, contributions] : by_class) {
        if (contributions.size() < 2) continue;
        std::vector<tensor::Tensor> centroids;
        std::vector<double> supports;
        bool shapes_ok = true;
        double support_total = 0.0;
        for (const Contribution& c : contributions) {
          if (!centroids.empty() &&
              !c.entry->centroid.same_shape(centroids.front())) {
            shapes_ok = false;
            break;
          }
          centroids.emplace_back(c.entry->centroid);
          supports.push_back(static_cast<double>(c.entry->support));
          support_total += c.entry->support;
        }
        if (!shapes_ok || centroids.empty()) continue;
        std::span<const double> weight_span =
            support_total > 0.0 ? std::span<const double>(supports)
                                : std::span<const double>{};
        const tensor::Tensor center = geometric_median(centroids, weight_span);
        const std::size_t dim = center.numel();
        for (std::size_t k = 0; k < contributions.size(); ++k) {
          double d2 = 0.0;
          const float* x = centroids[k].data();
          for (std::size_t j = 0; j < dim; ++j) {
            const double d =
                static_cast<double>(x[j]) - static_cast<double>(center[j]);
            d2 += d * d;
          }
          const std::size_t i = contributions[k].client;
          proto_sum[i] += std::sqrt(d2 / static_cast<double>(dim));
          ++proto_classes[i];
        }
      }
    } else {
      // Vector channel: coordinate median over conforming clients.
      std::vector<tensor::Tensor> parts;
      parts.reserve(conforming.size());
      for (std::size_t i : conforming) {
        if (const auto* w = std::get_if<comm::WeightsPayload>(&clients[i][p])) {
          parts.emplace_back(w->flat);
        } else {
          parts.emplace_back(std::get<comm::LogitsPayload>(clients[i][p]).logits);
        }
      }
      const tensor::Tensor center = coordinate_median(parts);
      const std::size_t dim = center.numel();
      for (std::size_t k = 0; k < conforming.size(); ++k) {
        double d2 = 0.0;
        const float* x = parts[k].data();
        for (std::size_t j = 0; j < dim; ++j) {
          const double d =
              static_cast<double>(x[j]) - static_cast<double>(center[j]);
          d2 += d * d;
        }
        sumsq[conforming[k]] += d2;
        coords[conforming[k]] += dim;
      }
    }
  }

  for (std::size_t i : conforming) {
    double score = 0.0;
    if (coords[i] > 0) {
      score += std::sqrt(sumsq[i] / static_cast<double>(coords[i]));
    }
    if (proto_classes[i] > 0) {
      score += proto_sum[i] / static_cast<double>(proto_classes[i]);
    }
    scores[i] = static_cast<float>(score);
  }
  return scores;
}

ExclusionDecision decide_exclusions(std::span<const float> scores,
                                    const AnomalyOptions& options) {
  const std::size_t n = scores.size();
  ExclusionDecision decision;
  decision.excluded.assign(n, 0);
  std::vector<double> values(scores.begin(), scores.end());
  decision.median = median_of_doubles(values);
  std::vector<double> deviations(n);
  for (std::size_t i = 0; i < n; ++i) {
    deviations[i] = std::fabs(values[i] - decision.median);
  }
  decision.mad = median_of_doubles(deviations);
  if (n < 3) {
    decision.threshold = std::numeric_limits<double>::infinity();
    return decision;
  }
  const double spread = std::max(
      {decision.mad, 0.05 * decision.median, options.min_spread});
  decision.threshold = decision.median + options.theta * spread;

  std::vector<std::size_t> flagged;
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<double>(scores[i]) > decision.threshold) flagged.push_back(i);
  }
  const std::size_t allowed = static_cast<std::size_t>(
      static_cast<double>(n) * options.max_exclude_fraction);
  if (flagged.size() > allowed) {
    // Keep only the worst offenders (highest scores; ties toward the lower
    // index) within the cap.
    std::sort(flagged.begin(), flagged.end(),
              [&](std::size_t a, std::size_t b) {
                if (scores[a] != scores[b]) return scores[a] > scores[b];
                return a < b;
              });
    flagged.resize(allowed);
  }
  for (std::size_t i : flagged) decision.excluded[i] = 1;
  return decision;
}

}  // namespace fedpkd::robust
