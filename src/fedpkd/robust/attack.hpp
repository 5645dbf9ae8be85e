#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "fedpkd/comm/meter.hpp"
#include "fedpkd/comm/payload.hpp"

namespace fedpkd::robust {

/// Scripted adversarial-client behaviors, mirroring comm::FaultPlan for the
/// network layer: a plan is declarative and seeded, the injector executes it
/// deterministically at the upload stage of the round pipeline.
enum class AttackType : std::uint8_t {
  /// Negate every uploaded tensor (gradient/update inversion).
  kSignFlip = 0,
  /// Multiply every uploaded tensor by `scale` (model boosting).
  kScaledBoost = 1,
  /// Train on involution-flipped labels (y -> C-1-y); the upload itself is
  /// untouched — the poison is baked into the trained weights/logits/
  /// prototypes.
  kLabelFlip = 2,
  /// Stale replay free-rider: upload the previous round's bundle instead of
  /// the fresh one (the first attacked round passes through while priming
  /// the one-round replay cache).
  kFreeRider = 3,
  /// Targeted prototype shift: displace every uploaded class centroid by
  /// `scale` along a fixed pseudo-random unit direction derived from
  /// (seed, node, class) — stateless, so it is identical across thread
  /// counts and after a checkpoint resume.
  kPrototypeShift = 4,
};

const char* to_string(AttackType type);
/// Parses "sign-flip", "scaled-boost", "label-flip", "free-rider",
/// "prototype-shift"; throws std::invalid_argument otherwise.
AttackType parse_attack_type(std::string_view name);

struct AdversarialClient {
  comm::NodeId node = 0;
  AttackType type = AttackType::kSignFlip;
  /// Magnitude for kScaledBoost (multiplier) and kPrototypeShift
  /// (displacement); ignored by the other attacks.
  double scale = 10.0;
};

struct AttackPlan {
  /// Seeds the prototype-shift directions.
  std::uint64_t seed = 0x41747461u;  // "Atta"
  /// First round (0-based) at which the adversaries act.
  std::size_t start_round = 0;
  std::vector<AdversarialClient> adversaries;

  bool any() const { return !adversaries.empty(); }
};

/// Label-flip involution y -> num_classes - 1 - y, applied in place. Applying
/// it twice restores the original labels, which is how the pipeline undoes
/// the poisoning after the adversary's local update.
void flip_labels(std::vector<int>& labels, std::size_t num_classes);

/// Executes an AttackPlan. Stateless except for the free-rider replay cache,
/// which persist() checkpoints so a run resumed from a checkpoint mid-attack
/// replays bitwise-identically. Like comm::FaultInjector the plan itself is
/// NOT serialized: resume re-applies the plan from configuration, reading
/// the state restores only the injector's position.
class AttackInjector {
 public:
  /// Validates and installs a plan (duplicate adversary nodes and non-finite
  /// scales throw std::invalid_argument). Clears the replay cache.
  void set_plan(AttackPlan plan);
  const AttackPlan& plan() const { return plan_; }

  /// Whether any adversary acts at `round`.
  bool active(std::size_t round) const {
    return plan_.any() && round >= plan_.start_round;
  }
  bool is_adversary(comm::NodeId node) const;
  /// Whether `node` trains on flipped labels at `round`.
  bool flips_labels(std::size_t round, comm::NodeId node) const;

  /// Mutates `parts` (the client's decoded upload bundle) according to the
  /// node's scripted attack. Returns true iff the node is an active
  /// adversary this round — including the no-op label-flip and the priming
  /// free-rider round, so the caller's attacks_injected counter reflects
  /// adversarial presence, not payload deltas.
  bool apply(std::size_t round, comm::NodeId node,
             std::vector<comm::Payload>& parts);

  /// The free-rider replay cache, through the state codec.
  void persist(tensor::StateIo& io);

 private:
  AttackPlan plan_;
  std::map<comm::NodeId, const AdversarialClient*> by_node_;
  /// Free-rider one-round replay cache: the encoded parts each free-riding
  /// node uploaded last round.
  std::map<comm::NodeId, std::vector<std::vector<std::byte>>> replay_cache_;
};

}  // namespace fedpkd::robust
