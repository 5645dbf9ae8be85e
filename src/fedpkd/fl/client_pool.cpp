#include "fedpkd/fl/client_pool.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::fl {

namespace {

/// Id-salted stream constants for the per-client RNG splits. The model
/// stream reuses the resident build_federation salt so a virtual client 0 of
/// a homogeneous spec initializes exactly like its resident counterpart; the
/// data/client streams are virtual-mode-only (resident shards come from the
/// partitioner, not the sampler).
constexpr std::uint64_t kModelStream = 0x6d6f0000ull;   // "mo"
constexpr std::uint64_t kShardStream = 0xda7a0000ull;   // "data"
constexpr std::uint64_t kClientStream = 0xc11e0000ull;  // "clie"

/// One client's checkpointed record, shared by dehydration blobs and the
/// resident section: RNG state, then flat weights.
void persist_client(tensor::StateIo& io, Client& client) {
  io.rng(client.rng);
  nn::persist_weights(io, client.model);
}

}  // namespace

void ClientPool::adopt_resident(std::vector<Client> clients) {
  if (virtual_ || !resident_.empty()) {
    throw std::logic_error("ClientPool: already configured");
  }
  resident_ = std::move(clients);
}

void ClientPool::configure_virtual(VirtualSpec spec) {
  if (virtual_ || !resident_.empty()) {
    throw std::logic_error("ClientPool: already configured");
  }
  if (spec.population == 0) {
    throw std::invalid_argument("ClientPool: zero population");
  }
  if (spec.archs.empty()) {
    throw std::invalid_argument("ClientPool: no client architectures");
  }
  if (spec.generator == nullptr) {
    throw std::invalid_argument("ClientPool: no dataset generator");
  }
  if (spec.shard_size == 0 || spec.local_test == 0) {
    throw std::invalid_argument("ClientPool: empty client shard");
  }
  if (spec.warm_capacity == 0) {
    throw std::invalid_argument("ClientPool: zero warm capacity");
  }
  virtual_ = true;
  spec_ = std::move(spec);
  warm_.resize(spec_.population);
}

Client& ClientPool::acquire(std::size_t id) {
  if (!virtual_) {
    // Resident clients are permanently warm: no lock, no stats, no LRU —
    // bitwise and performance-wise identical to the pre-pool federation.
    return resident_.at(id);
  }
  std::scoped_lock lock(mu_);
  return acquire_locked(id);
}

Client& ClientPool::acquire_locked(std::size_t id) {
  if (id >= spec_.population) {
    throw std::out_of_range("ClientPool: client id out of range");
  }
  if (warm_[id] != nullptr) {
    ++stats_.hits;
    touch_locked(id);
    return *warm_[id];
  }
  ++stats_.misses;
  ++stats_.hydrations;
  const auto t0 = std::chrono::steady_clock::now();
  auto client = std::make_unique<Client>(build_client(id));
  if (auto it = blobs_.find(id); it != blobs_.end()) {
    auto blob = tensor::StateIo::reader(it->second);
    persist_client(blob, *client);
  }
  warm_[id] = std::move(client);
  lru_.push_back(id);
  lru_pos_[id] = std::prev(lru_.end());
  evict_excess_locked();
  stats_.hydration_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return *warm_[id];
}

void ClientPool::touch_locked(std::size_t id) {
  auto it = lru_pos_.find(id);
  lru_.splice(lru_.end(), lru_, it->second);  // move to most-recent position
}

void ClientPool::evict_excess_locked() {
  // Pinned cohorts may legitimately exceed a small configured capacity; the
  // effective bound never evicts a pinned client.
  const std::size_t cap = std::max(spec_.warm_capacity, pinned_.size());
  auto it = lru_.begin();
  while (lru_.size() > cap && it != lru_.end()) {
    const std::size_t id = *it;
    // Never evict the most-recent entry: when a pinned cohort fills the cap,
    // the walk would otherwise reach the client acquire() is mid-way through
    // handing out and return a reference to a reset slot.
    if (std::next(it) == lru_.end()) break;
    if (pinned_.count(id) != 0) {
      ++it;
      continue;
    }
    blobs_[id] = dehydrate(*warm_[id]);
    warm_[id].reset();
    lru_pos_.erase(id);
    it = lru_.erase(it);
    ++stats_.dehydrations;
    ++stats_.evictions;
  }
}

bool ClientPool::is_warm(std::size_t id) const {
  if (!virtual_) return id < resident_.size();
  std::scoped_lock lock(mu_);
  return id < warm_.size() && warm_[id] != nullptr;
}

std::size_t ClientPool::warm_count() const {
  if (!virtual_) return resident_.size();
  std::scoped_lock lock(mu_);
  return lru_.size();
}

std::vector<std::size_t> ClientPool::warm_ids_lru() const {
  if (!virtual_) {
    std::vector<std::size_t> all(resident_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }
  std::scoped_lock lock(mu_);
  return {lru_.begin(), lru_.end()};
}

void ClientPool::pin_cohort(std::span<const std::size_t> ids) {
  if (!virtual_) return;
  std::scoped_lock lock(mu_);
  pinned_.clear();
  pinned_.insert(ids.begin(), ids.end());
  // Hydrate serially in the given (id) order so eviction is deterministic.
  for (std::size_t id : ids) acquire_locked(id);
}

PoolStats ClientPool::stats() const {
  if (!virtual_) return {};
  std::scoped_lock lock(mu_);
  return stats_;
}

Client ClientPool::build_client(std::size_t id) const {
  ClientConfig cc = spec_.client_defaults;
  cc.arch = spec_.archs[id % spec_.archs.size()];
  tensor::Rng model_rng = spec_.base_rng.split(kModelStream + id);
  nn::Classifier model = nn::make_classifier(cc.arch, spec_.input_dim,
                                             spec_.num_classes, model_rng);
  tensor::Rng data_rng = spec_.base_rng.split(kShardStream + id);
  data::Dataset train;
  data::Dataset test;
  if (spec_.classes_per_client > 0 &&
      spec_.classes_per_client < spec_.num_classes) {
    // Non-IID shard: this client only ever sees an id-chosen class subset
    // (partial Fisher-Yates over the class ids), train and local test alike —
    // the virtual-mode analogue of the shards partition.
    std::vector<int> order(spec_.num_classes);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[data_rng.uniform_index(i)]);
    }
    std::vector<int> classes(order.begin(),
                             order.begin() + static_cast<std::ptrdiff_t>(
                                                 spec_.classes_per_client));
    std::sort(classes.begin(), classes.end());
    train = spec_.generator->sample_classes(spec_.shard_size, classes, data_rng);
    test = spec_.generator->sample_classes(spec_.local_test, classes, data_rng);
  } else {
    train = spec_.generator->sample(spec_.shard_size, data_rng);
    test = spec_.generator->sample(spec_.local_test, data_rng);
  }
  return Client(static_cast<comm::NodeId>(id), std::move(cc), std::move(model),
                std::move(train), std::move(test),
                spec_.base_rng.split(kClientStream + id));
}

std::vector<std::byte> ClientPool::dehydrate(Client& client) const {
  std::vector<std::byte> blob;
  auto io = tensor::StateIo::writer(blob);
  persist_client(io, client);
  return blob;
}

void ClientPool::persist(tensor::StateIo& io) {
  bool stored_virtual = virtual_;
  io.flag(stored_virtual);
  if (stored_virtual != virtual_) {
    throw std::runtime_error(
        "ClientPool: checkpoint pool mode does not match the federation");
  }
  if (!virtual_) {
    for (Client& client : resident_) persist_client(io, client);
    return;
  }
  std::scoped_lock lock(mu_);
  std::vector<std::size_t> lru_order(lru_.begin(), lru_.end());
  io.seq(lru_order, 8, "ClientPool warm-set list", [&](std::size_t& id) {
    io.size(id);
    if (id >= spec_.population) {
      throw std::runtime_error("ClientPool: warm id out of range");
    }
  });
  // The touched set: every client that diverged from its derivable fresh
  // state (warm now, or evicted with a blob). Ascending id order keeps the
  // byte stream deterministic regardless of hash-map iteration order.
  std::vector<std::size_t> touched;
  if (io.reading()) {
    for (auto& slot : warm_) slot.reset();
    lru_.clear();
    lru_pos_.clear();
    blobs_.clear();
    pinned_.clear();
  } else {
    touched.reserve(blobs_.size() + lru_.size());
    for (const auto& [id, blob] : blobs_) touched.push_back(id);
    for (std::size_t id : lru_) {
      if (blobs_.count(id) == 0) touched.push_back(id);
    }
    std::sort(touched.begin(), touched.end());
  }
  // Each entry: u64 id + u64 blob length.
  touched.resize(io.count(touched.size(), 16, "ClientPool blob table"));
  for (std::size_t& id : touched) {
    io.size(id);
    if (id >= spec_.population) {
      throw std::runtime_error("ClientPool: blob id out of range");
    }
    // Warm clients serialize their live state; an evicted client's blob is
    // current by construction (dehydrated at eviction).
    if (!io.reading() && warm_[id] != nullptr) {
      std::vector<std::byte> live = dehydrate(*warm_[id]);
      io.blob(live);
    } else {
      io.blob(blobs_[id]);
    }
  }
  // Rebuild the warm set in recorded recency order so the next eviction
  // decision resumes exactly where the interrupted run left off.
  if (io.reading()) {
    for (std::size_t id : lru_order) acquire_locked(id);
  }
}

}  // namespace fedpkd::fl
