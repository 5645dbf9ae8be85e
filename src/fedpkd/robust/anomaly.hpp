#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fedpkd/comm/payload.hpp"

namespace fedpkd::robust {

/// Client-level anomaly detection: FedPKD's Algorithm 1 scores *samples* by
/// their distance to class prototypes; here the same idea is generalized to
/// score *clients* by the distance of their uploaded bundle to the robust
/// center of the cohort's uploads. Scores feed per-round exclusion decisions
/// before the server step.

/// Sentinel score for clients whose upload could not be decoded or does not
/// structurally match the cohort (wrong part count/kind/shape). Finite on
/// purpose so it survives CSV round-trips, yet astronomically above any real
/// distance.
inline constexpr float kMalformedScore = 1e30f;

struct AnomalyOptions {
  /// Exclusion threshold is median + theta * spread, where spread is a
  /// MAD-based robust scale (see decide_exclusions).
  double theta = 4.0;
  /// Hard cap on the excluded fraction; the scorer's breakdown point is 1/2,
  /// beyond which "anomalous" flips meaning.
  double max_exclude_fraction = 0.5;
  /// Floor on the spread so a perfectly homogeneous honest cohort (MAD = 0)
  /// does not flag benign float-level jitter.
  double min_spread = 1e-6;
};

/// Scores one decoded upload bundle per client. Two channels, summed:
///  - vector channel: RMS distance of the client's concatenated weights and
///    logits parts to their coordinate-wise median across conforming clients;
///  - prototype channel: mean over contributed classes (with >= 2
///    contributors) of the RMS distance of the client's class centroid to the
///    support-weighted geometric median of that class's centroids.
/// A client with an empty or structurally non-conforming bundle scores
/// kMalformedScore. Deterministic and thread-count invariant (the underlying
/// kernels are).
std::vector<float> anomaly_scores(
    std::span<const std::vector<comm::Payload>> clients);

struct ExclusionDecision {
  /// Per-client verdict, same order as the scores.
  std::vector<std::uint8_t> excluded;
  double threshold = 0.0;
  double median = 0.0;
  double mad = 0.0;
};

/// Median + MAD outlier rule over the scores: a client is excluded when its
/// score exceeds median + theta * max(MAD, 0.05 * median, min_spread). Fewer
/// than 3 clients excludes nobody (no meaningful spread estimate); at most
/// floor(n * max_exclude_fraction) clients are excluded, keeping the
/// highest-scoring ones (ties broken toward the lower index).
ExclusionDecision decide_exclusions(std::span<const float> scores,
                                    const AnomalyOptions& options = {});

}  // namespace fedpkd::robust
