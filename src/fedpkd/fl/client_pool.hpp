#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/fl/client.hpp"

namespace fedpkd::fl {

/// Cumulative hydration counters of one ClientPool. All counts are
/// deterministic in virtual mode because the pipeline acquires clients
/// serially in id order; hydration_seconds is wall-clock and therefore not.
struct PoolStats {
  std::size_t hits = 0;          // acquire() served from the warm set
  std::size_t misses = 0;        // acquire() had to hydrate
  std::size_t hydrations = 0;    // clients rebuilt (fresh or from a blob)
  std::size_t dehydrations = 0;  // clients serialized to a blob on eviction
  std::size_t evictions = 0;     // warm clients retired by the LRU bound
  double hydration_seconds = 0.0;
};

/// The virtual-client pool: the population is a set of derivable
/// `ClientSpec`s (id -> arch, RNG streams, dataset shard), and full Client
/// state exists only for the warm set.
///
/// Two modes:
///  * resident — adopts an eagerly built std::vector<Client> (the classic
///    build_federation path). Every client is permanently warm, acquire() is
///    a bounds-checked array access with no lock and no stats, and eviction
///    never happens: the pool degenerates bitwise to the pre-pool federation.
///  * virtual — the population is just a number. acquire(id) hydrates a
///    client on demand: the model is built from the id-derived RNG stream,
///    the dataset shard is regenerated from the deterministic SyntheticVision
///    sampler (shards are recomputed, never stored), and — if the client was
///    trained before — its RNG state and weights are restored from a compact
///    dehydration blob (the state codec's client record). Warm
///    clients live in a bounded LRU; eviction dehydrates the least recently
///    acquired unpinned client.
///
/// Determinism contract: acquire() is thread-safe (one mutex guards all pool
/// structures), but LRU recency — and therefore eviction order — follows the
/// caller's acquire order. The round pipeline and checkpoint code only
/// acquire serially in client-id order, so eviction, hydration counts, and
/// every downstream result are bitwise independent of the thread count.
/// Rehydration is exact: blob weights and RNG state (including the Box-Muller
/// cache) round-trip bitwise, and the regenerated shard is byte-identical
/// because the sampler streams are derived from (base seed, id) only.
class ClientPool {
 public:
  /// How virtual clients are derived. Everything is a pure function of
  /// (base_rng, id): arch cycles through `archs`, the model/data/client RNG
  /// streams are independent splits salted with the id, and the train/test
  /// shard is sampled from `generator` (restricted to `classes_per_client`
  /// id-chosen classes when non-zero, the non-IID pathology knob).
  struct VirtualSpec {
    std::size_t population = 0;
    /// Warm-set bound. Clamped up to the pinned cohort size at pin time so a
    /// round's participants can never evict each other mid-round.
    std::size_t warm_capacity = 64;
    std::vector<std::string> archs = {"resmlp20"};
    ClientConfig client_defaults;
    std::size_t input_dim = 0;
    std::size_t num_classes = 0;
    std::size_t shard_size = 64;       // per-client train samples
    std::size_t local_test = 32;       // per-client test samples
    std::size_t classes_per_client = 0;  // 0 = all classes (IID shards)
    std::shared_ptr<const data::SyntheticVision> generator;
    tensor::Rng base_rng{0};
  };

  ClientPool() = default;
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Resident mode: takes ownership of eagerly built clients (indexed by id).
  void adopt_resident(std::vector<Client> clients);

  /// Virtual mode: installs the spec; no client is hydrated yet.
  void configure_virtual(VirtualSpec spec);

  bool virtual_mode() const { return virtual_; }
  std::size_t population() const {
    return virtual_ ? spec_.population : resident_.size();
  }

  /// Returns the client, hydrating it first in virtual mode (thread-safe;
  /// see the class comment for the determinism contract). The reference is
  /// stable until the client is evicted; pinned clients are never evicted.
  Client& acquire(std::size_t id);

  bool is_warm(std::size_t id) const;
  std::size_t warm_count() const;
  std::size_t warm_capacity() const { return spec_.warm_capacity; }
  /// Warm client ids, least recently acquired first. Resident mode: all ids.
  std::vector<std::size_t> warm_ids_lru() const;

  /// Pins this round's cohort: hydrates every id serially (deterministic
  /// eviction order) and protects them from eviction until the next pin.
  /// No-op in resident mode.
  void pin_cohort(std::span<const std::size_t> ids);

  PoolStats stats() const;

  /// The compact dehydration blob of one client: RNG state + flat weights,
  /// the same client record the resident checkpoint section uses. Datasets
  /// are never stored — shards are regenerated from the spec on hydration.
  std::vector<std::byte> dehydrate(Client& client) const;

  /// Checkpoint state (state codec): mode byte, then either every resident
  /// client's RNG + weights (id order) or the virtual pool state (warm-LRU
  /// id list in recency order + the touched-client blob table). Reading
  /// rebuilds the warm set in the recorded recency order.
  void persist(tensor::StateIo& io);

  const VirtualSpec& spec() const { return spec_; }

 private:
  Client build_client(std::size_t id) const;  // fresh from the spec
  Client& acquire_locked(std::size_t id);
  void touch_locked(std::size_t id);
  void evict_excess_locked();

  bool virtual_ = false;
  std::vector<Client> resident_;  // resident mode storage; never resized
  VirtualSpec spec_;
  std::vector<std::unique_ptr<Client>> warm_;  // virtual mode, population-sized
  std::unordered_map<std::size_t, std::vector<std::byte>> blobs_;
  std::list<std::size_t> lru_;  // warm ids, least recently acquired first
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> lru_pos_;
  std::unordered_set<std::size_t> pinned_;
  mutable std::mutex mu_;
  PoolStats stats_;
};

}  // namespace fedpkd::fl
