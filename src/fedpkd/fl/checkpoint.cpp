#include "fedpkd/fl/checkpoint.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::fl {

namespace {

constexpr std::uint32_t kMagic = 0x464b5043u;  // 'FPKC' (single model)
// v2 seals the file with durable's CRC32 footer so truncation and bit flips
// are detected at load; v1 (unsealed) files still load.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kLegacyVersion = 1;

constexpr std::uint32_t kRunMagic = 0x464b5052u;  // 'FPKR' (federation resume)
// v3 adds the attack injector's replay cache, the adaptive weight-norm
// tracker, the per-round robustness counters, and per-client anomaly records.
// v4 replaces the flat per-client section with the client pool's state: a
// mode byte, then either every resident client (the v3 layout) or the
// virtual pool's warm-LRU list and touched-client blob table.
// v5 adds the event engine's state (simulated clock, global version,
// in-flight uploads, aggregation buffer, staleness cursors) after the pool
// section, and per-round engine counters in the history — a buffered-async
// run resumes bitwise mid-buffer.
// v6 keeps the v5 payload but the file is sealed with durable's CRC32
// footer and written atomically (tmp + fsync + rename).
constexpr std::uint32_t kRunVersion = 6;

/// A model checkpoint's fields; `weights` is the flat parameter vector.
struct ModelImage {
  std::string arch;
  std::size_t input_dim = 0;
  std::size_t num_classes = 0;
  tensor::Tensor weights;
};

/// The 'FPKC' model record. Read mode takes the whole `file`: it accepts the
/// sealed v2 and the legacy unsealed v1, verifies v2's CRC32 footer before
/// trusting a single payload byte — a truncated or bit-flipped file fails
/// there instead of decoding into silently-wrong weights — and requires the
/// payload to end exactly after the weights.
void persist_model(tensor::StateIo& io, ModelImage& model,
                   std::span<const std::byte> file, const std::string& origin) {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  io.u32(magic);
  if (magic != kMagic) {
    throw std::runtime_error("checkpoint: bad magic in " + origin);
  }
  io.u32(version);
  std::size_t end = file.size();
  if (version == kVersion) {
    if (io.reading()) {
      end = durable::verified_payload_size(file, "checkpoint " + origin);
    }
  } else if (version != kLegacyVersion) {
    throw std::runtime_error("checkpoint: unsupported version in " + origin);
  }
  io.string(model.arch);
  io.size(model.input_dim);
  io.size(model.num_classes);
  io.tensor(model.weights);
  if (io.reading() && io.offset() != end) {
    throw std::runtime_error("checkpoint: trailing bytes in " + origin);
  }
}

}  // namespace

void save_checkpoint(nn::Classifier& model,
                     const std::filesystem::path& path) {
  ModelImage image{model.arch(), model.input_dim(), model.num_classes(),
                   model.flat_weights()};
  std::vector<std::byte> out;
  auto io = tensor::StateIo::writer(out);
  persist_model(io, image, {}, path.string());
  durable::append_footer(out);
  durable::atomic_write_file(path, out);
}

nn::Classifier load_checkpoint(const std::filesystem::path& path) {
  const auto bytes = durable::read_file_bytes(path);
  auto io = tensor::StateIo::reader(bytes);
  ModelImage image;
  persist_model(io, image, bytes, path.string());
  // Seed is irrelevant: every weight is overwritten below.
  tensor::Rng rng(0);
  nn::Classifier model = nn::make_classifier(image.arch, image.input_dim,
                                             image.num_classes, rng);
  model.set_flat_weights(image.weights);
  return model;
}

void export_history_csv(const RunHistory& history,
                        const std::filesystem::path& path) {
  // Built in memory and replaced atomically: a crash mid-export leaves the
  // previous CSV intact instead of a torn file under the same name.
  std::ostringstream out;
  out << "round,server_accuracy,mean_client_accuracy,cumulative_bytes,"
         "anomaly_excluded,anomaly,sim_ms,flushes,agg_uploads,stale_max\n";
  for (const RoundMetrics& m : history.rounds) {
    out << m.round << ',';
    if (m.server_accuracy) out << *m.server_accuracy;
    out << ',' << m.mean_client_accuracy << ',' << m.cumulative_bytes << ','
        << (m.fault_stats ? m.fault_stats->anomaly_excluded : 0) << ',';
    // Per-client anomaly records, semicolon-joined: node:score:excluded|kept.
    for (std::size_t i = 0; i < m.anomaly.size(); ++i) {
      if (i != 0) out << ';';
      const ClientAnomaly& a = m.anomaly[i];
      out << a.node << ':' << a.score << ':'
          << (a.excluded ? "excluded" : "kept");
    }
    // Event-engine columns: simulated clock at round end, buffer flushes,
    // aggregated uploads, max staleness. Empty when the round ran outside
    // the staged pipeline (no engine stats).
    out << ',';
    if (m.engine_stats) {
      const RoundEngineStats& e = *m.engine_stats;
      out << e.round_end_ms << ',' << e.buffer_flushes << ','
          << e.aggregated_uploads << ',' << e.max_staleness;
    } else {
      out << ",,,";
    }
    out << '\n';
  }
  const std::string csv = out.str();
  durable::atomic_write_file(
      path, std::as_bytes(std::span<const char>(csv.data(), csv.size())));
}

namespace {

/// std::stoul throws std::invalid_argument on junk, which callers reserve
/// for programmer errors; a malformed *file* is a runtime_error. These
/// wrappers also reject partially-numeric cells ("12abc") and, for floats,
/// non-finite values — a NaN accuracy cell would silently poison every
/// best-accuracy / bytes-to-target query downstream.
std::size_t parse_count(const std::string& field, const char* what) {
  std::size_t pos = 0;
  unsigned long value = 0;
  try {
    value = std::stoul(field, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("import_history_csv: bad ") + what +
                             " cell '" + field + "'");
  }
  if (pos != field.size()) {
    throw std::runtime_error(std::string("import_history_csv: bad ") + what +
                             " cell '" + field + "'");
  }
  return static_cast<std::size_t>(value);
}

float parse_accuracy(const std::string& field, const char* what) {
  std::size_t pos = 0;
  float value = 0.0f;
  try {
    value = std::stof(field, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("import_history_csv: bad ") + what +
                             " cell '" + field + "'");
  }
  if (pos != field.size() || !std::isfinite(value)) {
    throw std::runtime_error(std::string("import_history_csv: bad ") + what +
                             " cell '" + field + "'");
  }
  return value;
}

/// Parses the semicolon-joined anomaly column written by export_history_csv:
/// `node:score:excluded|kept;...`. Exclusion *reasons* are log-only and not
/// round-tripped through the CSV.
std::vector<ClientAnomaly> parse_anomaly_cell(const std::string& cell) {
  std::vector<ClientAnomaly> anomaly;
  std::istringstream entries(cell);
  std::string entry;
  while (std::getline(entries, entry, ';')) {
    std::istringstream parts(entry);
    std::string node_field;
    std::string score_field;
    std::string flag;
    if (!std::getline(parts, node_field, ':') ||
        !std::getline(parts, score_field, ':') || !std::getline(parts, flag)) {
      throw std::runtime_error("import_history_csv: bad anomaly cell '" +
                               entry + "'");
    }
    ClientAnomaly a;
    a.node =
        static_cast<std::int32_t>(parse_count(node_field, "anomaly node"));
    a.score = parse_accuracy(score_field, "anomaly score");
    if (flag == "excluded") {
      a.excluded = true;
    } else if (flag == "kept") {
      a.excluded = false;
    } else {
      throw std::runtime_error("import_history_csv: bad anomaly cell '" +
                               entry + "'");
    }
    anomaly.push_back(std::move(a));
  }
  return anomaly;
}

}  // namespace

RunHistory import_history_csv(const std::filesystem::path& path,
                              std::string algorithm) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("import_history_csv: cannot open " +
                             path.string());
  }
  RunHistory history;
  history.algorithm = std::move(algorithm);
  std::string line;
  constexpr const char* kLegacyHeader =
      "round,server_accuracy,mean_client_accuracy,cumulative_bytes";
  constexpr const char* kAnomalyHeader =
      "round,server_accuracy,mean_client_accuracy,cumulative_bytes,"
      "anomaly_excluded,anomaly";
  constexpr const char* kHeader =
      "round,server_accuracy,mean_client_accuracy,cumulative_bytes,"
      "anomaly_excluded,anomaly,sim_ms,flushes,agg_uploads,stale_max";
  if (!std::getline(in, line)) {
    throw std::runtime_error("import_history_csv: bad header");
  }
  const bool has_engine_columns = line == kHeader;
  const bool has_anomaly_columns = has_engine_columns || line == kAnomalyHeader;
  if (!has_anomaly_columns && line != kLegacyHeader) {
    throw std::runtime_error("import_history_csv: bad header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string field;
    RoundMetrics m;
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing round");
    }
    m.round = parse_count(field, "round");
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing server accuracy");
    }
    if (!field.empty()) {
      m.server_accuracy = parse_accuracy(field, "server accuracy");
    }
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing client accuracy");
    }
    m.mean_client_accuracy = parse_accuracy(field, "client accuracy");
    if (!std::getline(row, field, ',')) {
      throw std::runtime_error("import_history_csv: missing bytes");
    }
    m.cumulative_bytes = parse_count(field, "bytes");
    if (has_anomaly_columns) {
      if (!std::getline(row, field, ',')) {
        throw std::runtime_error("import_history_csv: missing anomaly count");
      }
      const std::size_t excluded = parse_count(field, "anomaly count");
      if (excluded > 0) {
        RoundFaultStats f;
        f.anomaly_excluded = excluded;
        m.fault_stats = f;
      }
      // The anomaly cell may legitimately be empty; without the engine
      // columns it is also the last cell, so getline fails at end-of-line.
      if (std::getline(row, field, ',') && !field.empty()) {
        m.anomaly = parse_anomaly_cell(field);
      }
    }
    if (has_engine_columns) {
      // sim_ms is empty when the round carried no engine stats; then the
      // remaining three cells are empty too.
      if (!std::getline(row, field, ',')) {
        throw std::runtime_error("import_history_csv: missing sim_ms");
      }
      if (!field.empty()) {
        RoundEngineStats e;
        e.round_end_ms = static_cast<double>(parse_accuracy(field, "sim_ms"));
        if (!std::getline(row, field, ',')) {
          throw std::runtime_error("import_history_csv: missing flushes");
        }
        e.buffer_flushes = parse_count(field, "flushes");
        if (!std::getline(row, field, ',')) {
          throw std::runtime_error("import_history_csv: missing agg_uploads");
        }
        e.aggregated_uploads = parse_count(field, "agg_uploads");
        if (!std::getline(row, field, ',')) {
          throw std::runtime_error("import_history_csv: missing stale_max");
        }
        e.max_staleness = parse_count(field, "stale_max");
        m.engine_stats = e;
      }
    }
    history.rounds.push_back(m);
  }
  return history;
}

/// -- Federation crash-resume checkpoints ------------------------------------

namespace {

/// One round of the run history. Wall-clock stage times and the pool's
/// hydration counters are not serialized: they are non-deterministic and
/// meaningless across process restarts. Fault and engine counters (the
/// latter on the simulated clock) are.
void persist_round(tensor::StateIo& io, RoundMetrics& m) {
  io.size(m.round);
  io.optional(m.server_accuracy, [&](float& acc) { io.f32(acc); });
  io.f32(m.mean_client_accuracy);
  io.seq(m.client_accuracy, 4, "checkpoint: client accuracies",
         [&](float& acc) { io.f32(acc); });
  io.size(m.cumulative_bytes);
  io.optional(m.fault_stats, [&](RoundFaultStats& f) {
    for (std::size_t* counter :
         {&f.send_attempts, &f.retries, &f.frames_dropped, &f.corrupt_frames,
          &f.bundles_lost, &f.stragglers_excluded, &f.rejected_contributions,
          &f.quorum_misses, &f.clients_crashed, &f.attacks_injected,
          &f.anomaly_excluded, &f.clipped_contributions}) {
      io.size(*counter);
    }
    io.f64(f.max_upload_latency_ms);
  });
  // Per record: u32 node, f32 score, flag, u32 reason length.
  io.seq(m.anomaly, 13, "checkpoint: anomaly records", [&](ClientAnomaly& a) {
    io.i32(a.node);
    io.f32(a.score);
    io.flag(a.excluded);
    io.string(a.reason);
  });
  io.optional(m.engine_stats, [&](RoundEngineStats& e) {
    io.f64(e.round_start_ms);
    io.f64(e.round_end_ms);
    for (std::size_t* counter :
         {&e.buffer_flushes, &e.aggregated_uploads, &e.buffered_uploads,
          &e.inflight_uploads, &e.busy_skips}) {
      io.size(*counter);
    }
    for (std::size_t& bucket : e.staleness_hist) io.size(bucket);
    io.size(e.max_staleness);
  });
}

// Smallest encoded round: round, flag, mean accuracy, accuracy count,
// cumulative bytes, flag, anomaly count, flag.
constexpr std::size_t kMinRoundBytes = 8 + 1 + 4 + 8 + 8 + 1 + 8 + 1;
// A meter record: round, from, to, kind byte, bytes.
constexpr std::size_t kTrafficRecordBytes = 8 + 4 + 4 + 1 + 8;

/// The 'FPKR' federation checkpoint, both directions: header, federation
/// RNG, participation sampler, fault injector, attack injector, weight-norm
/// tracker, traffic meter log, client count, client pool, event engine,
/// the length-prefixed algorithm blob, and the run history. Read mode
/// restores every piece into `fed` and `algorithm`.
void persist_federation(tensor::StateIo& io, Algorithm& algorithm,
                        Federation& fed, std::size_t& next_round,
                        RunHistory& history, const std::string& origin) {
  std::uint32_t magic = kRunMagic;
  io.u32(magic);
  if (magic != kRunMagic) {
    throw std::runtime_error("checkpoint: bad magic in " + origin);
  }
  std::uint32_t version = kRunVersion;
  io.u32(version);
  if (version != kRunVersion) {
    throw std::runtime_error("checkpoint: unsupported version in " + origin);
  }
  std::string name = algorithm.name();
  io.string(name);
  if (name != algorithm.name()) {
    throw std::runtime_error("checkpoint: recorded for algorithm '" + name +
                             "', resuming '" + algorithm.name() + "'");
  }
  io.size(next_round);
  io.rng(fed.rng);

  Federation::ParticipationState participation = fed.participation_state();
  io.seq(participation.active_indices, 8, "checkpoint: participation state",
         [&](std::size_t& i) { io.size(i); });
  tensor::Rng participation_rng(0);
  participation_rng.set_state(participation.rng);
  io.rng(participation_rng);
  participation.rng = participation_rng.state();
  io.flag(participation.sampled_once);
  io.size(participation.begun_round);
  if (io.reading()) fed.restore_participation(participation);

  fed.channel.faults().persist(io);
  // Like the fault plan, the attack plan itself is not serialized: resume
  // re-applies the plan and this restores only the mutable position (the
  // free-rider replay cache and the adaptive norm history).
  fed.attacks.persist(io);
  fed.norm_tracker.persist(io);

  std::vector<comm::TrafficRecord> records;
  if (!io.reading()) records = fed.meter.records();
  io.seq(records, kTrafficRecordBytes, "checkpoint: traffic log",
         [&](comm::TrafficRecord& r) {
           io.size(r.round);
           io.i32(r.from);
           io.i32(r.to);
           auto kind = static_cast<std::uint8_t>(r.kind);
           io.u8(kind);
           r.kind = static_cast<comm::PayloadKind>(kind);
           io.size(r.bytes);
         });
  std::size_t meter_round = fed.meter.current_round();
  io.size(meter_round);
  if (io.reading()) fed.meter.restore(std::move(records), meter_round);

  std::size_t clients = fed.num_clients();
  io.size(clients);
  if (clients != fed.num_clients()) {
    throw std::runtime_error("checkpoint: recorded " + std::to_string(clients) +
                             " clients, federation has " +
                             std::to_string(fed.num_clients()));
  }
  fed.pool.persist(io);
  fed.engine.persist(io);

  // The algorithm blob is length-prefixed, and its reader is bounded to it,
  // so a buggy algorithm decoder cannot read into the history.
  if (io.reading()) {
    std::size_t blob_size = 0;
    io.size(blob_size);
    auto blob = tensor::StateIo::reader(
        io.take(blob_size, "checkpoint: truncated algorithm state"));
    algorithm.persist(blob);
    if (blob.offset() != blob_size) {
      throw std::runtime_error(
          "checkpoint: algorithm state size mismatch (recorded " +
          std::to_string(blob_size) + " bytes, decoder consumed " +
          std::to_string(blob.offset()) + ")");
    }
  } else {
    std::vector<std::byte> blob;
    auto algo_io = tensor::StateIo::writer(blob);
    algorithm.persist(algo_io);
    io.blob(blob);
  }

  if (io.reading()) history.algorithm = name;
  io.seq(history.rounds, kMinRoundBytes, "checkpoint: history",
         [&](RoundMetrics& m) { persist_round(io, m); });
}

}  // namespace

std::vector<std::byte> encode_federation_checkpoint(Algorithm& algorithm,
                                                    Federation& fed,
                                                    std::size_t next_round,
                                                    const RunHistory& history) {
  if (!algorithm.supports_resume()) {
    throw std::invalid_argument("save_federation_checkpoint: " +
                                algorithm.name() +
                                " does not support crash-resume");
  }
  std::vector<std::byte> out;
  auto io = tensor::StateIo::writer(out);
  // Write mode only reads the history.
  persist_federation(io, algorithm, fed, next_round,
                     const_cast<RunHistory&>(history), {});
  return out;
}

FederationResume decode_federation_checkpoint(std::span<const std::byte> bytes,
                                              Algorithm& algorithm,
                                              Federation& fed,
                                              const std::string& origin) {
  auto io = tensor::StateIo::reader(bytes);
  FederationResume resume;
  persist_federation(io, algorithm, fed, resume.next_round, resume.history,
                     origin);
  if (io.offset() != bytes.size()) {
    throw std::runtime_error("checkpoint: trailing bytes in " + origin);
  }
  return resume;
}

std::size_t save_federation_checkpoint(durable::GenerationChain& chain,
                                       Algorithm& algorithm, Federation& fed,
                                       std::size_t next_round,
                                       const RunHistory& history) {
  return chain.commit(
      encode_federation_checkpoint(algorithm, fed, next_round, history));
}

std::optional<ChainResume> load_federation_checkpoint(
    const durable::GenerationChain& chain, Algorithm& algorithm,
    Federation& fed) {
  const auto loaded = chain.load();
  if (!loaded) return std::nullopt;
  ChainResume out;
  out.generation = loaded->generation;
  out.fallbacks = loaded->fallbacks;
  out.manifest_recovered = loaded->manifest_recovered;
  out.resume = decode_federation_checkpoint(
      loaded->payload, algorithm, fed,
      chain.generation_path(loaded->generation).string());
  return out;
}

}  // namespace fedpkd::fl
