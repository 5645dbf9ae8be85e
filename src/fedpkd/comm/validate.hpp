#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fedpkd/comm/payload.hpp"

namespace fedpkd::comm {

/// Poisoned-update defense: what the server checks on every decoded uplink
/// contribution before letting it near aggregation. One NaN-emitting or
/// corrupted client must degrade into "excluded and counted", never into a
/// poisoned global model.
struct ValidationPolicy {
  /// Reject any payload carrying a NaN or infinity (weights, logits, or
  /// prototype centroids). On by default: no aggregation rule in the suite
  /// is meaningful over non-finite inputs.
  bool check_finite = true;
  /// L2-norm bound on weights payloads; 0 disables. A simple norm clip is
  /// the classic defense against magnitude-inflation poisoning.
  double max_weights_norm = 0.0;
  /// Bound on |logit| entries; 0 disables.
  double max_logit_abs = 0.0;
  /// Derive the weights-norm bound per round from the history of previously
  /// accepted uploads (median + adaptive_norm_factor * MAD, tracked by a
  /// WeightNormTracker at the pipeline level). Until adaptive_min_history
  /// norms have been observed, the fixed max_weights_norm applies (0 = no
  /// bound), so cold starts fail open rather than rejecting everyone.
  bool adaptive_weights_norm = false;
  double adaptive_norm_factor = 6.0;
  std::size_t adaptive_min_history = 4;

  bool enabled() const {
    return check_finite || max_weights_norm > 0.0 || max_logit_abs > 0.0 ||
           adaptive_weights_norm;
  }
};

/// Rolling history of accepted weights-payload norms, used to derive the
/// adaptive validation bound. Median + MAD rather than mean + stddev: one
/// accepted boosted upload should not be able to drag the bound upward for
/// its successors. Bounded history (oldest norms dropped) keeps the bound
/// tracking the current training phase — weight norms grow as models train.
class WeightNormTracker {
 public:
  static constexpr std::size_t kMaxHistory = 256;

  void record(double norm);
  /// median + factor * max(MAD, 0.01 * median, 1e-9) once at least
  /// `min_history` norms were recorded; `fallback` before that.
  double bound_or(double fallback, double factor,
                  std::size_t min_history) const;
  std::size_t size() const { return history_.size(); }
  const std::vector<double>& history() const { return history_; }

  /// Checkpoint state (state codec; insertion order preserved).
  void persist(tensor::StateIo& io);

 private:
  std::vector<double> history_;  // insertion order; oldest at front
};

/// L2 norm of an encoded weights payload (decode + norm); used to feed the
/// tracker from accepted wire parts. Throws tensor::DecodeError on junk.
double weights_part_norm(std::span<const std::byte> part);

/// Validates one uplink bundle (its parts as delivered wire bytes) against
/// `policy` and, when `reference` is non-null, against the first accepted
/// bundle's structure: same part count, same kind sequence, and agreeing
/// tensor shapes (weights numel, logits rows x cols, prototype feature
/// dimension — prototype *counts* may differ, since clients legitimately
/// hold different class subsets).
///
/// Returns nullopt when the bundle is acceptable, else a human-readable
/// rejection reason. Undecodable parts are a rejection, not an exception:
/// hostile bytes that survived the CRC must still fail closed.
std::optional<std::string> validate_bundle(
    const std::vector<std::vector<std::byte>>& parts,
    const std::vector<std::vector<std::byte>>* reference,
    const ValidationPolicy& policy);

}  // namespace fedpkd::comm
