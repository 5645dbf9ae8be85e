#include "fedpkd/fl/federation.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/nn/model_zoo.hpp"

namespace fedpkd::fl {

const char* to_string(RoundMode mode) {
  switch (mode) {
    case RoundMode::kSync:
      return "sync";
    case RoundMode::kSemiSync:
      return "semisync";
    case RoundMode::kAsync:
      return "async";
  }
  throw std::logic_error("to_string: unknown RoundMode");
}

RoundMode parse_round_mode(const std::string& name) {
  if (name == "sync") return RoundMode::kSync;
  if (name == "semisync") return RoundMode::kSemiSync;
  if (name == "async") return RoundMode::kAsync;
  throw std::invalid_argument(
      "parse_round_mode: '" + name +
      "' is not one of sync, semisync, async");
}

PartitionSpec PartitionSpec::iid() {
  PartitionSpec s;
  s.method = PartitionMethod::kIid;
  return s;
}

PartitionSpec PartitionSpec::dirichlet(double alpha) {
  PartitionSpec s;
  s.method = PartitionMethod::kDirichlet;
  s.alpha = alpha;
  return s;
}

PartitionSpec PartitionSpec::shards(std::size_t k,
                                    std::size_t shards_per_client,
                                    std::size_t shard_size) {
  PartitionSpec s;
  s.method = PartitionMethod::kShards;
  s.classes_per_client = k;
  s.shards_per_client = shards_per_client;
  s.shard_size = shard_size;
  return s;
}

PartitionSpec PartitionSpec::class_split() {
  PartitionSpec s;
  s.method = PartitionMethod::kClassSplit;
  return s;
}

std::string PartitionSpec::label() const {
  std::ostringstream os;
  switch (method) {
    case PartitionMethod::kIid:
      os << "iid";
      break;
    case PartitionMethod::kDirichlet:
      os << "dir(" << alpha << ")";
      break;
    case PartitionMethod::kShards:
      os << "shards(k=" << classes_per_client << ")";
      break;
    case PartitionMethod::kClassSplit:
      os << "class-split";
      break;
  }
  return os.str();
}

namespace {

data::Partition make_partition(const data::Dataset& pool,
                               const PartitionSpec& spec, std::size_t clients,
                               tensor::Rng& rng) {
  switch (spec.method) {
    case PartitionMethod::kIid:
      return data::iid_partition(pool.size(), clients, rng);
    case PartitionMethod::kDirichlet:
      return data::dirichlet_partition(pool, clients, spec.alpha, rng);
    case PartitionMethod::kShards:
      return data::shards_partition(pool, clients, spec.classes_per_client,
                                    spec.shards_per_client, spec.shard_size,
                                    rng);
    case PartitionMethod::kClassSplit:
      return data::class_split_partition(pool, clients);
  }
  throw std::logic_error("make_partition: unknown method");
}

/// Draws a local test set from the global test pool whose label distribution
/// matches `train_hist` (sampling per class with replacement if the pool for
/// a class is smaller than requested).
data::Dataset make_local_test(const data::Dataset& test_pool,
                              const std::vector<std::size_t>& train_hist,
                              std::size_t target_size, tensor::Rng& rng) {
  const std::size_t train_total =
      std::accumulate(train_hist.begin(), train_hist.end(), std::size_t{0});
  if (train_total == 0) {
    throw std::invalid_argument("make_local_test: client has no train data");
  }
  std::vector<std::size_t> chosen;
  chosen.reserve(target_size);
  for (std::size_t j = 0; j < train_hist.size(); ++j) {
    if (train_hist[j] == 0) continue;
    const auto pool = test_pool.indices_of_class(static_cast<int>(j));
    if (pool.empty()) continue;
    // Round to nearest, but guarantee at least one sample per present class.
    const double share = static_cast<double>(train_hist[j]) /
                         static_cast<double>(train_total);
    std::size_t want = static_cast<std::size_t>(
        share * static_cast<double>(target_size) + 0.5);
    want = std::max<std::size_t>(want, 1);
    for (std::size_t i = 0; i < want; ++i) {
      chosen.push_back(pool[rng.uniform_index(pool.size())]);
    }
  }
  if (chosen.empty()) {
    throw std::logic_error("make_local_test: empty local test set");
  }
  return test_pool.subset(chosen);
}

}  // namespace

void Federation::begin_round(std::size_t round) {
  meter.begin_round(round);
  if (sampled_once_ && begun_round_ == round) return;  // keep this round's set
  if (participation_fraction <= 0.0) {
    throw std::invalid_argument(
        "Federation: participation_fraction must be in (0, 1]");
  }
  sampled_once_ = true;
  begun_round_ = round;
  active_indices_.clear();
  const std::size_t population = pool.population();
  if (pool.virtual_mode()) {
    std::size_t want =
        cohort_size > 0
            ? cohort_size
            : std::max<std::size_t>(
                  1, static_cast<std::size_t>(
                         participation_fraction *
                             static_cast<double>(population) + 0.5));
    want = std::min(want, population);
    if (want >= population) {
      active_indices_.resize(population);
      std::iota(active_indices_.begin(), active_indices_.end(), 0);
    } else {
      // Rejection-sample `want` distinct ids: O(cohort) work per round where
      // the resident path's partial shuffle is O(population) — the
      // difference between a 1M-client round costing microseconds and one
      // costing a full shuffle plus an 8 MB allocation.
      std::unordered_set<std::size_t> seen;
      seen.reserve(want * 2);
      while (active_indices_.size() < want) {
        const auto id =
            static_cast<std::size_t>(participation_rng_.uniform_index(population));
        if (seen.insert(id).second) active_indices_.push_back(id);
      }
      std::sort(active_indices_.begin(), active_indices_.end());
    }
    // Hydrate and pin the cohort now (serially, in id order) so every
    // Client* resolved from it stays valid for the whole round and eviction
    // order is independent of the thread count.
    pool.pin_cohort(active_indices_);
    return;
  }
  if (participation_fraction >= 1.0) return;  // empty = everyone
  const auto want = std::max<std::size_t>(
      1, static_cast<std::size_t>(participation_fraction *
                                  static_cast<double>(population) + 0.5));
  std::vector<std::size_t> order(population);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[participation_rng_.uniform_index(i)]);
  }
  active_indices_.assign(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(want));
  std::sort(active_indices_.begin(), active_indices_.end());
}

std::vector<std::size_t> Federation::active_client_ids() const {
  // begin_round with a partial cohort always fills active_indices_, so an
  // empty list means full participation (requested or pre-first-round).
  if (!sampled_once_ || active_indices_.empty()) {
    std::vector<std::size_t> all(pool.population());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  return active_indices_;
}

std::vector<std::size_t> Federation::eval_client_ids() const {
  if (pool.virtual_mode()) {
    // Per-round client accuracy is reported over the current cohort — the
    // full population would have to be hydrated client by client.
    return sampled_once_ ? active_client_ids() : std::vector<std::size_t>{};
  }
  std::vector<std::size_t> all(pool.population());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

std::vector<std::string> Federation::distinct_archs() {
  std::vector<std::string> out;
  auto add = [&](const std::string& arch) {
    if (std::find(out.begin(), out.end(), arch) == out.end()) {
      out.push_back(arch);
    }
  };
  if (!client_archs.empty()) {
    for (const std::string& arch : client_archs) add(arch);
    return out;
  }
  // Hand-built federation without the config record: scan the materialized
  // clients (resident pools only — virtual pools always carry client_archs).
  for (std::size_t i = 0; i < num_clients(); ++i) add(client(i).config.arch);
  return out;
}

std::unique_ptr<Federation> build_federation(
    const data::FederatedDataBundle& bundle, const PartitionSpec& partition,
    const FederationConfig& config) {
  if (config.num_clients == 0) {
    throw std::invalid_argument("build_federation: zero clients");
  }
  if (config.client_archs.empty()) {
    throw std::invalid_argument("build_federation: no client architectures");
  }
  bundle.train_pool.validate();
  bundle.test_global.validate();
  bundle.public_data.validate();
  if (bundle.train_pool.num_classes != bundle.test_global.num_classes ||
      bundle.train_pool.num_classes != bundle.public_data.num_classes ||
      bundle.train_pool.dim() != bundle.test_global.dim() ||
      bundle.train_pool.dim() != bundle.public_data.dim()) {
    throw std::invalid_argument("build_federation: inconsistent bundle");
  }

  exec::set_num_threads(config.num_threads);

  auto fed = std::make_unique<Federation>();
  fed->public_data = bundle.public_data;
  fed->test_global = bundle.test_global;
  fed->num_classes = bundle.train_pool.num_classes;
  fed->input_dim = bundle.train_pool.dim();
  fed->rng = tensor::Rng(config.seed);
  fed->robust = config.robust;

  tensor::Rng partition_rng = fed->rng.split(0x70617274);
  const data::Partition split =
      make_partition(bundle.train_pool, partition, config.num_clients,
                     partition_rng);
  data::validate_partition(split, bundle.train_pool.size());

  fed->seed_participation(fed->rng.split(0x7061727469636970ull));
  fed->client_archs = config.client_archs;
  fed->client_defaults = config.client_defaults;
  fed->edge_aggregators = config.edge_aggregators;
  tensor::Rng test_rng = fed->rng.split(0x74657374);
  std::vector<Client> clients;
  clients.reserve(config.num_clients);
  for (std::size_t c = 0; c < config.num_clients; ++c) {
    ClientConfig cc = config.client_defaults;
    cc.arch = config.client_archs[c % config.client_archs.size()];
    tensor::Rng model_rng = fed->rng.split(0x6d6f0000 + c);
    nn::Classifier model = nn::make_classifier(cc.arch, fed->input_dim,
                                               fed->num_classes, model_rng);
    data::Dataset train = bundle.train_pool.subset(split[c]);
    data::Dataset test =
        make_local_test(bundle.test_global, train.class_histogram(),
                        config.local_test_per_client, test_rng);
    clients.emplace_back(static_cast<comm::NodeId>(c), std::move(cc),
                         std::move(model), std::move(train), std::move(test),
                         fed->rng.split(0xc1000 + c));
  }
  fed->pool.adopt_resident(std::move(clients));
  return fed;
}

std::unique_ptr<Federation> build_virtual_federation(
    const VirtualFederationConfig& config) {
  if (config.population == 0) {
    throw std::invalid_argument("build_virtual_federation: zero population");
  }
  if (config.cohort_size > config.population) {
    throw std::invalid_argument(
        "build_virtual_federation: cohort exceeds population");
  }
  if (config.client_archs.empty()) {
    throw std::invalid_argument(
        "build_virtual_federation: no client architectures");
  }

  exec::set_num_threads(config.num_threads);

  auto fed = std::make_unique<Federation>();
  auto generator = std::make_shared<data::SyntheticVision>(config.task);
  fed->rng = tensor::Rng(config.seed);
  fed->robust = config.robust;
  fed->num_classes = config.task.num_classes;
  fed->input_dim = config.task.input_dim;
  fed->cohort_size = config.cohort_size;
  fed->edge_aggregators = config.edge_aggregators;
  fed->client_archs = config.client_archs;
  fed->client_defaults = config.client_defaults;

  // Server-side datasets are sampled once from dedicated streams (same salt
  // scheme as the resident path); client shards are never materialized here —
  // the pool regenerates them per hydration from (seed, id).
  tensor::Rng test_rng = fed->rng.split(0x74657374);
  fed->test_global = generator->sample(config.test_n, test_rng);
  tensor::Rng public_rng = fed->rng.split(0x7075626cull);
  fed->public_data = generator->sample(config.public_n, public_rng);
  fed->seed_participation(fed->rng.split(0x7061727469636970ull));

  ClientPool::VirtualSpec spec;
  spec.population = config.population;
  spec.warm_capacity = config.warm_capacity > 0
                           ? config.warm_capacity
                           : 4 * std::max<std::size_t>(1, config.cohort_size);
  spec.archs = config.client_archs;
  spec.client_defaults = config.client_defaults;
  spec.input_dim = fed->input_dim;
  spec.num_classes = fed->num_classes;
  spec.shard_size = config.shard_size;
  spec.local_test = config.local_test_per_client;
  spec.classes_per_client = config.classes_per_client;
  spec.generator = std::move(generator);
  spec.base_rng = fed->rng;
  fed->pool.configure_virtual(std::move(spec));
  return fed;
}

RoundMetrics evaluate_round(Algorithm& algorithm, Federation& fed,
                            std::size_t round, std::size_t eval_batch) {
  RoundMetrics metrics;
  metrics.round = round;
  if (nn::Classifier* server = algorithm.server_model()) {
    metrics.server_accuracy =
        evaluate_accuracy(*server, fed.test_global, eval_batch);
  }
  // Clients evaluate concurrently (each touches only its own model); the
  // mean reduces serially in client-index order so it is thread-count
  // independent. Pointers are resolved serially first: in a virtual
  // federation that hydrates any cold client in deterministic id order
  // before the parallel fan-out touches anything.
  const std::vector<std::size_t> ids = fed.eval_client_ids();
  std::vector<Client*> eval_clients;
  eval_clients.reserve(ids.size());
  for (std::size_t id : ids) eval_clients.push_back(&fed.client(id));
  metrics.client_accuracy.assign(ids.size(), 0.0f);
  exec::parallel_for(ids.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      metrics.client_accuracy[i] = evaluate_accuracy(
          eval_clients[i]->model, eval_clients[i]->test_data, eval_batch);
    }
  });
  double acc_sum = 0.0;
  for (const float acc : metrics.client_accuracy) acc_sum += acc;
  metrics.mean_client_accuracy =
      ids.empty()
          ? 0.0f
          : static_cast<float>(acc_sum / static_cast<double>(ids.size()));
  metrics.cumulative_bytes = fed.meter.total();
  return metrics;
}

RunHistory run_federation(Algorithm& algorithm, Federation& fed,
                          const RunOptions& options) {
  RunHistory history;
  history.algorithm = algorithm.name();
  if (options.rounds > options.start_round) {
    history.rounds.reserve(options.rounds - options.start_round);
  }
  for (std::size_t t = options.start_round; t < options.rounds; ++t) {
    fed.begin_round(t);
    algorithm.run_round(fed, t);
    RoundMetrics metrics = evaluate_round(algorithm, fed, t, options.eval_batch);
    if (const StageTimes* stages = algorithm.last_stage_times()) {
      metrics.stage_seconds = *stages;
    }
    if (const RoundFaultStats* faults = algorithm.last_fault_stats()) {
      metrics.fault_stats = *faults;
    }
    if (const std::vector<ClientAnomaly>* anomaly = algorithm.last_anomaly()) {
      metrics.anomaly = *anomaly;
    }
    if (const PoolRoundStats* pool = algorithm.last_pool_stats()) {
      metrics.pool_stats = *pool;
    }
    if (const RoundEngineStats* engine = algorithm.last_engine_stats()) {
      metrics.engine_stats = *engine;
    }
    if (options.log != nullptr) {
      *options.log << history.algorithm << " round " << t;
      if (metrics.server_accuracy) {
        *options.log << " S_acc=" << *metrics.server_accuracy;
      }
      *options.log << " C_acc=" << metrics.mean_client_accuracy << " comm="
                   << comm::Meter::to_mb(metrics.cumulative_bytes) << "MB";
      if (metrics.stage_seconds) {
        const StageTimes& s = *metrics.stage_seconds;
        *options.log << " stages[train=" << s.local_update_seconds
                     << "s up=" << s.upload_seconds
                     << "s server=" << s.server_step_seconds
                     << "s down=" << s.download_seconds
                     << "s apply=" << s.apply_seconds << "s]";
      }
      if (metrics.fault_stats && metrics.fault_stats->any()) {
        const RoundFaultStats& f = *metrics.fault_stats;
        *options.log << " faults[retries=" << f.retries
                     << " lost=" << f.bundles_lost
                     << " corrupt=" << f.corrupt_frames
                     << " stragglers=" << f.stragglers_excluded
                     << " rejected=" << f.rejected_contributions
                     << " crashed=" << f.clients_crashed
                     << " quorum_miss=" << f.quorum_misses;
        if (f.attacks_injected > 0 || f.anomaly_excluded > 0 ||
            f.clipped_contributions > 0) {
          *options.log << " attacks=" << f.attacks_injected
                       << " anomaly_excl=" << f.anomaly_excluded
                       << " clipped=" << f.clipped_contributions;
        }
        *options.log << "]";
      }
      if (metrics.engine_stats) {
        const RoundEngineStats& e = *metrics.engine_stats;
        *options.log << " sim[t=" << e.round_end_ms << "ms"
                     << " flushes=" << e.buffer_flushes
                     << " agg=" << e.aggregated_uploads;
        if (e.buffered_uploads > 0 || e.inflight_uploads > 0 ||
            e.busy_skips > 0) {
          *options.log << " buf=" << e.buffered_uploads
                       << " inflight=" << e.inflight_uploads
                       << " busy=" << e.busy_skips;
        }
        if (e.max_staleness > 0) {
          *options.log << " stale_max=" << e.max_staleness;
        }
        *options.log << "]";
      }
      if (metrics.pool_stats) {
        const PoolRoundStats& p = *metrics.pool_stats;
        *options.log << " pool[hit=" << p.hits << " miss=" << p.misses
                     << " evict=" << p.evictions << " warm=" << p.warm_clients
                     << " hyd=" << p.hydration_seconds * 1e3 << "ms]";
      }
      if (!metrics.anomaly.empty()) {
        *options.log << " robust[";
        for (std::size_t a = 0; a < metrics.anomaly.size(); ++a) {
          const ClientAnomaly& record = metrics.anomaly[a];
          if (a > 0) *options.log << " ";
          *options.log << "c" << record.node << "=" << record.score
                       << (record.excluded ? "(excluded)" : "");
        }
        *options.log << "]";
      }
      *options.log << "\n";
      options.log->flush();
    }
    history.rounds.push_back(std::move(metrics));
    const bool checkpoint_due = options.checkpoint_every > 0 &&
                                options.checkpoint_chain != nullptr &&
                                (t + 1) % options.checkpoint_every == 0;
    if (checkpoint_due) {
      durable::crash_point("run:before_checkpoint");
      // Snapshot covers only rounds executed by this run (a resumed run's
      // history starts at its own start_round); next_round is t + 1.
      save_federation_checkpoint(*options.checkpoint_chain, algorithm, fed,
                                 t + 1, history);
      durable::crash_point("run:after_checkpoint");
    }
  }
  return history;
}

}  // namespace fedpkd::fl
