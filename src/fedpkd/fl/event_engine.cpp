#include "fedpkd/fl/event_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "fedpkd/comm/payload.hpp"
#include "fedpkd/comm/validate.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/durable_io.hpp"
#include "fedpkd/robust/aggregate.hpp"
#include "fedpkd/robust/anomaly.hpp"
#include "fedpkd/robust/attack.hpp"

namespace fedpkd::fl {

namespace {

using PendingUpload = EngineState::PendingUpload;

/// What RoundPolicy::mode means for one round (DESIGN.md §14), derived once
/// at the top of the executor. Semisync is neither flag: a deadline-ticked
/// wake slice aggregated once, in arrival order.
struct Discipline {
  /// Barrier broadcast, per-upload deadline, slot-order batch, anomaly
  /// filter before quorum, and no versioning: the engine state it touches
  /// is the clock alone.
  bool sync = false;
  /// No deadline: uploads stay in flight across rounds and the server
  /// flushes its buffer every K validated arrivals, staleness-discounted.
  bool async = false;
};

struct BundleResult {
  std::optional<WireBundle> wire;
  double latency_ms = 0.0;
};

/// Transmits every part of `bundle` from `from` to `to` over the reliable
/// transport, folding each part's SendReport into `stats`. All parts are
/// sent even after one is lost for good, so the fault-dice sequence — and
/// thus every other link's fate — is independent of delivery outcomes;
/// frames that crossed the wire stay charged on the meter like a real
/// network. Returns the verified wire bytes only if every part made it
/// (all-or-nothing), plus the bundle's total simulated latency (parts travel
/// sequentially over one link).
BundleResult send_bundle_reliable(comm::Channel& channel, comm::NodeId from,
                                  comm::NodeId to, const PayloadBundle& bundle,
                                  RoundFaultStats& stats) {
  BundleResult result;
  WireBundle wire;
  wire.parts.reserve(bundle.parts.size());
  bool delivered = true;
  std::size_t attempts = 0;
  for (const StagePayload& part : bundle.parts) {
    comm::SendReport report = std::visit(
        [&](const auto& payload) {
          return channel.send_reliable(from, to, payload);
        },
        part);
    stats.send_attempts += report.attempts;
    stats.retries += report.retries;
    stats.frames_dropped += report.drops;
    stats.corrupt_frames += report.corrupt_detected;
    attempts += report.attempts;
    result.latency_ms += report.latency_ms;
    if (report.delivered()) {
      wire.parts.push_back(std::move(*report.payload));
    } else {
      delivered = false;
    }
  }
  if (delivered) {
    result.wire = std::move(wire);
  } else if (attempts > 0) {
    // The transport tried and gave up. An offline endpoint (zero attempts)
    // is not a transport loss — it is accounted as a crash, not a lost
    // bundle.
    ++stats.bundles_lost;
  }
  return result;
}

/// Sends `bundle` from the server to every participant, serially in slot
/// order so the fault-dice and meter sequences are thread-count independent.
/// Adds each slot's latency to `latency_ms[slot]`. Outside sync a delivered
/// bundle also moves the client's pull cursor to the current global version.
std::vector<std::optional<WireBundle>> send_to_cohort(
    Federation& fed, const RoundContext& ctx, const PayloadBundle& bundle,
    Discipline mode, std::vector<double>& latency_ms,
    RoundFaultStats& faults) {
  std::vector<std::optional<WireBundle>> received(ctx.num_active());
  for (std::size_t i = 0; i < ctx.num_active(); ++i) {
    BundleResult sent = send_bundle_reliable(
        fed.channel, comm::kServerId, ctx.active[i]->id, bundle, faults);
    latency_ms[i] += sent.latency_ms;
    if (sent.wire && !mode.sync) {
      fed.engine.set_pulled(static_cast<std::uint32_t>(ctx.active[i]->id),
                            fed.engine.global_version);
    }
    received[i] = std::move(sent.wire);
  }
  return received;
}

/// Digests delivered downlink bundles, client-parallel. Clients whose bundle
/// was lost keep their stale state (same rule as a missed broadcast).
void apply_downloads(RoundStages& stages, RoundContext& ctx,
                     const std::vector<std::optional<WireBundle>>& received,
                     StageTimes& times) {
  StageSpan span(times.apply_seconds);
  exec::parallel_for(received.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (received[i]) {
        stages.apply_download(ctx, i, *ctx.active[i], *received[i]);
      }
    }
  });
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

std::string format_score(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.4g", value);
  return buffer;
}

/// Hierarchical (edge) aggregation: splits the surviving contributions into
/// `fed.edge_aggregators` contiguous sub-cohorts, combines each sub-cohort
/// per payload kind under the federation's robust policy, and returns one
/// synthetic contribution per edge (weight = summed member weights,
/// slot/client = first member's). The server step then aggregates the
/// pre-combined tier exactly as it would direct uploads. Groups whose
/// bundles disagree structurally (part count, kinds, logit sample ids,
/// weight shapes) pass their members through uncombined — a heterogeneous
/// sub-cohort degrades to flat aggregation rather than failing the round.
std::vector<Contribution> edge_aggregate(Federation& fed,
                                         std::vector<Contribution>& inputs,
                                         RoundFaultStats& faults) {
  const auto groups =
      robust::edge_partition(inputs.size(), fed.edge_aggregators);
  std::vector<Contribution> tier;
  tier.reserve(groups.size());
  for (const auto& [begin, end] : groups) {
    const std::size_t members = end - begin;
    if (members == 1) {
      tier.push_back(std::move(inputs[begin]));
      continue;
    }
    // Structural conformance check against the group's first bundle.
    const std::vector<std::vector<std::byte>>& head = inputs[begin].bundle.parts;
    bool conforming = true;
    for (std::size_t m = begin + 1; m < end && conforming; ++m) {
      const auto& parts = inputs[m].bundle.parts;
      if (parts.size() != head.size()) {
        conforming = false;
        break;
      }
      for (std::size_t p = 0; p < parts.size(); ++p) {
        if (comm::peek_kind(parts[p]) != comm::peek_kind(head[p])) {
          conforming = false;
          break;
        }
      }
    }
    if (!conforming || head.empty()) {
      for (std::size_t m = begin; m < end; ++m) {
        tier.push_back(std::move(inputs[m]));
      }
      continue;
    }
    Contribution combined;
    combined.slot = inputs[begin].slot;
    combined.client = inputs[begin].client;
    combined.node = inputs[begin].node;
    std::vector<float> member_weights;
    member_weights.reserve(members);
    for (std::size_t m = begin; m < end; ++m) {
      combined.weight += inputs[m].weight;
      member_weights.push_back(inputs[m].weight);
    }
    bool combinable = true;
    std::vector<std::vector<std::byte>> out_parts;
    out_parts.reserve(head.size());
    for (std::size_t p = 0; p < head.size() && combinable; ++p) {
      switch (comm::peek_kind(head[p])) {
        case comm::PayloadKind::kWeights: {
          std::vector<tensor::Tensor> flats;
          flats.reserve(members);
          for (std::size_t m = begin; m < end; ++m) {
            flats.push_back(inputs[m].bundle.weights(p).flat);
          }
          for (std::size_t i = 1; i < flats.size(); ++i) {
            if (!flats[i].same_shape(flats.front())) combinable = false;
          }
          if (!combinable) break;
          // kNone honors the member weights (the |D_c| mean an edge would
          // compute); the order-statistic rules stay weight-blind per tier.
          robust::CombineResult r =
              robust::robust_combine(fed.robust, flats, member_weights);
          faults.clipped_contributions += r.clipped;
          out_parts.push_back(
              comm::encode(comm::WeightsPayload{std::move(r.value)}));
          break;
        }
        case comm::PayloadKind::kLogits: {
          std::vector<comm::LogitsPayload> uploads;
          uploads.reserve(members);
          for (std::size_t m = begin; m < end; ++m) {
            uploads.push_back(inputs[m].bundle.logits(p));
          }
          std::vector<tensor::Tensor> logits;
          logits.reserve(members);
          for (comm::LogitsPayload& u : uploads) {
            if (u.sample_ids != uploads.front().sample_ids ||
                !u.logits.same_shape(uploads.front().logits)) {
              combinable = false;
              break;
            }
            logits.push_back(std::move(u.logits));
          }
          if (!combinable) break;
          // Uniform within the edge: logit consumers (FedMD/DS-FL/FedDF's
          // distillation targets) average per-sample opinions, not per-shard
          // sample counts.
          robust::CombineResult r =
              robust::robust_combine(fed.robust, logits, {});
          faults.clipped_contributions += r.clipped;
          comm::LogitsPayload out;
          out.sample_ids = std::move(uploads.front().sample_ids);
          out.logits = std::move(r.value);
          out_parts.push_back(comm::encode(out));
          break;
        }
        case comm::PayloadKind::kPrototypes: {
          std::vector<comm::PrototypesPayload> uploads;
          uploads.reserve(members);
          for (std::size_t m = begin; m < end; ++m) {
            uploads.push_back(inputs[m].bundle.prototypes(p));
          }
          robust::PrototypeAggregateResult r =
              robust::robust_aggregate_prototypes(fed.robust, uploads);
          faults.clipped_contributions += r.clipped;
          out_parts.push_back(comm::encode(r.payload));
          break;
        }
      }
    }
    if (!combinable) {
      for (std::size_t m = begin; m < end; ++m) {
        tier.push_back(std::move(inputs[m]));
      }
      continue;
    }
    combined.bundle.parts = std::move(out_parts);
    tier.push_back(std::move(combined));
  }
  return tier;
}

/// Prototype-distance anomaly filter (Algorithm 1 generalized from samples
/// to clients) over >= 3 contributions: score them against the cohort's
/// robust center, record every verdict in `outcome.anomaly`, and erase the
/// median+MAD outliers before the server step, counting them in
/// `faults.anomaly_excluded`. No-op when the filter is off or the set is too
/// small.
void apply_anomaly_filter(Federation& fed,
                          std::vector<Contribution>& contributions,
                          RoundOutcome& outcome, RoundFaultStats& faults) {
  if (!fed.robust.anomaly_filter || contributions.size() < 3) return;
  std::vector<std::vector<comm::Payload>> decoded(contributions.size());
  for (std::size_t c = 0; c < contributions.size(); ++c) {
    if (auto parts = comm::decode_parts(contributions[c].bundle.parts)) {
      decoded[c] = std::move(*parts);
    }  // undecodable stays empty -> kMalformedScore
  }
  const std::vector<float> scores = robust::anomaly_scores(decoded);
  robust::AnomalyOptions anomaly_options;
  anomaly_options.theta = fed.robust.anomaly_theta;
  anomaly_options.max_exclude_fraction =
      fed.robust.anomaly_max_exclude_fraction;
  const robust::ExclusionDecision decision =
      robust::decide_exclusions(scores, anomaly_options);
  outcome.anomaly.reserve(outcome.anomaly.size() + contributions.size());
  for (std::size_t c = 0; c < contributions.size(); ++c) {
    ClientAnomaly record;
    record.node = contributions[c].node;
    record.score = scores[c];
    record.excluded = decision.excluded[c] != 0;
    if (record.excluded) {
      record.reason =
          scores[c] >= robust::kMalformedScore
              ? "malformed or non-conforming bundle"
              : "score " + format_score(scores[c]) + " > threshold " +
                    format_score(decision.threshold);
    }
    outcome.anomaly.push_back(std::move(record));
  }
  for (std::size_t c = contributions.size(); c-- > 0;) {
    if (decision.excluded[c]) {
      contributions.erase(contributions.begin() +
                          static_cast<std::ptrdiff_t>(c));
      ++faults.anomaly_excluded;
    }
  }
}

/// FedBuff's staleness discount w(τ) = 1/(1+τ)^β.
double staleness_weight(std::uint64_t tau, double beta) {
  if (tau == 0 || beta == 0.0) return 1.0;
  return 1.0 / std::pow(1.0 + static_cast<double>(tau), beta);
}

/// Composes the staleness discount with prototype aggregation: the native
/// and robust prototype merge paths weight by PrototypeEntry::support, so a
/// stale upload's prototype parts are re-encoded with supports scaled by w
/// (floor at 1 — a class the client saw never vanishes entirely). Weights
/// and logits parts compose through Contribution::weight instead and are
/// left untouched.
void discount_prototype_supports(std::vector<std::vector<std::byte>>& parts,
                                 double w) {
  if (w >= 1.0) return;
  for (std::vector<std::byte>& part : parts) {
    if (comm::peek_kind(part) != comm::PayloadKind::kPrototypes) continue;
    comm::PrototypesPayload payload = comm::decode_prototypes(part);
    for (comm::PrototypeEntry& entry : payload.entries) {
      const double scaled =
          std::floor(static_cast<double>(entry.support) * w + 0.5);
      entry.support = static_cast<std::uint32_t>(std::max(1.0, scaled));
    }
    part = comm::encode(payload);
  }
}

void record_staleness(std::uint64_t tau, RoundEngineStats& stats) {
  const std::size_t bucket =
      std::min<std::uint64_t>(tau, kStalenessBuckets - 1);
  ++stats.staleness_hist[bucket];
  stats.max_staleness =
      std::max(stats.max_staleness, static_cast<std::size_t>(tau));
}

/// Turns a batch of uploads into server Contributions. A sync upload keeps
/// its slot (stored in `seq`) and its participant; elsewhere the slot is the
/// batch position and the sender is hydrated serially, in batch order, since
/// an async upload can outlive its wake's cohort. Outside sync the staleness
/// histogram is recorded here, before the filter; async also applies the
/// staleness discount to the weight and the prototype supports.
std::vector<Contribution> build_contributions(Federation& fed,
                                              const RoundContext& ctx,
                                              std::vector<PendingUpload>& ups,
                                              Discipline mode,
                                              RoundEngineStats& stats) {
  std::vector<Contribution> contributions;
  contributions.reserve(ups.size());
  for (std::size_t c = 0; c < ups.size(); ++c) {
    PendingUpload& up = ups[c];
    const std::uint64_t tau = fed.engine.global_version - up.trained_version;
    const double w =
        mode.async ? staleness_weight(tau, fed.policy.staleness_beta) : 1.0;
    Contribution out;
    if (mode.sync) {
      out.slot = up.seq;
      out.client = ctx.active[up.seq];
    } else {
      record_staleness(tau, stats);
      out.slot = c;
      // Virtual federations need warm capacity for the cohort plus the
      // buffer — the default 4x cohort bound covers K <= cohort.
      out.client = &fed.client(up.client);
    }
    out.node = static_cast<comm::NodeId>(up.client);
    out.weight = static_cast<float>(static_cast<double>(up.weight) * w);
    out.bundle.parts = std::move(up.parts);
    discount_prototype_supports(out.bundle.parts, w);
    contributions.push_back(std::move(out));
  }
  return contributions;
}

/// ceil(quorum_fraction * participants), at least 1; 0 when no quorum is set.
std::size_t quorum_need(const RoundPolicy& policy, std::size_t participants) {
  if (policy.quorum_fraction <= 0.0) return 0;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             policy.quorum_fraction * static_cast<double>(participants))));
}

/// One server aggregation over `ups` (a sync or semisync round's batch, or
/// the full async buffer): anomaly filter, then — sync only — the quorum of
/// `need` survivors, then the optional edge tier and server_step. Returns
/// false when nothing was aggregated (the uploads are consumed either way).
bool flush_uploads(RoundStages& stages, Federation& fed, RoundContext& ctx,
                   std::vector<PendingUpload>& ups, Discipline mode,
                   std::size_t need, RoundOutcome& outcome,
                   RoundEngineStats& stats) {
  std::vector<Contribution> contributions =
      build_contributions(fed, ctx, ups, mode, stats);
  ups.clear();
  // Sync's quorum follows the filter, so excluded adversaries count toward
  // the shortfall like any other non-contributor.
  apply_anomaly_filter(fed, contributions, outcome, outcome.faults);
  if (contributions.size() < need) {
    outcome.faults.quorum_misses = 1;
    return false;
  }
  if (contributions.empty()) return false;
  if (mode.sync) stats.staleness_hist[0] += contributions.size();
  stats.aggregated_uploads += contributions.size();
  if (fed.edge_aggregators > 1 &&
      contributions.size() > fed.edge_aggregators) {
    contributions = edge_aggregate(fed, contributions, outcome.faults);
  }
  stages.server_step(ctx, contributions);
  if (!mode.sync) ++fed.engine.global_version;
  ++stats.buffer_flushes;
  // The nastiest crash window: the server model already advanced, the
  // flushed uploads are gone from memory, and the round that would
  // checkpoint them has not finished. Resume must re-derive the whole slice
  // from the previous checkpoint.
  durable::crash_point("engine:after_flush");
  return true;
}

}  // namespace

RoundOutcome run_event_driven(RoundStages& stages, Federation& fed,
                              std::size_t round) {
  const RoundPolicy& policy = fed.policy;
  const Discipline mode{.sync = policy.mode == RoundMode::kSync,
                        .async = policy.mode == RoundMode::kAsync};
  if (policy.mode == RoundMode::kSemiSync &&
      !std::isfinite(policy.upload_deadline_ms)) {
    throw std::invalid_argument(
        "run_event_driven: semisync mode needs a finite upload_deadline_ms "
        "(the deadline is the aggregation tick)");
  }
  if (mode.async && !(policy.wake_interval_ms > 0.0)) {
    throw std::invalid_argument(
        "run_event_driven: async mode needs a positive wake_interval_ms");
  }
  EngineState& eng = fed.engine;
  RoundOutcome outcome;
  StageTimes& times = outcome.times;
  RoundFaultStats& faults = outcome.faults;
  RoundEngineStats stats;
  stats.round_start_ms = eng.now_ms;
  comm::FaultInjector& injector = fed.channel.faults();
  fed.begin_round(round);  // idempotent: keeps a caller-sampled participant set

  // One round = one wake slice on the simulated clock. Semisync's slice is
  // the upload deadline (the aggregation tick); async's is the configured
  // wake interval. Sync has no fixed slice: it ends at its own tick.
  const double slice_start = eng.now_ms;
  const double slice_end =
      slice_start +
      (mode.async ? policy.wake_interval_ms : policy.upload_deadline_ms);

  // Wake set: this round's sampled participants, resolved to live clients
  // serially in id order (in a virtual federation begin_round's pin already
  // hydrated them). An async client whose previous upload is still crossing
  // the wire stays busy (FedBuff clients run one training at a time) and
  // skips this wake.
  const std::vector<std::size_t> active_ids = fed.active_client_ids();
  std::vector<Client*> participants;
  participants.reserve(active_ids.size());
  for (std::size_t id : active_ids) {
    if (mode.async && eng.has_in_flight(static_cast<std::uint32_t>(id))) {
      ++stats.busy_skips;
      continue;
    }
    participants.push_back(&fed.client(id));
  }
  RoundContext ctx(fed, round, std::move(participants));
  ctx.faults = &faults;
  const std::size_t n = ctx.num_active();
  stages.on_round_start(ctx);

  // Label-flip adversaries train on involution-flipped labels this round.
  // Flipped in place before local_update and restored (the flip is its own
  // inverse) after the upload payloads are built, so poisoned logits and
  // prototypes are also computed from the flipped data — evaluation later in
  // the round sees the client's true labels again.
  std::vector<Client*> label_flipped;
  if (fed.attacks.active(round)) {
    for (std::size_t i = 0; i < n; ++i) {
      if (fed.attacks.flips_labels(round, ctx.active[i]->id)) {
        robust::flip_labels(ctx.active[i]->train_data.labels, fed.num_classes);
        label_flipped.push_back(ctx.active[i]);
      }
    }
  }

  // --- wake: downlink pull --------------------------------------------------
  // Every participant receives the pre-training broadcast (weight family)
  // and, in async mode, pulls the knowledge download (distillation family —
  // only once the server has aggregated at least once; sync and semisync
  // download after the server step instead). Per-client downlink latency
  // delays that client's upload arrival.
  faults.clients_crashed +=
      injector.advance(round, comm::RoundStage::kBroadcast);
  std::vector<double> downlink_ms(n, 0.0);
  std::vector<std::optional<WireBundle>> pulled;
  {
    StageSpan span(times.download_seconds);
    if (std::optional<PayloadBundle> bundle = stages.make_broadcast(ctx)) {
      ctx.broadcast_rx =
          send_to_cohort(fed, ctx, *bundle, mode, downlink_ms, faults);
    }
    if (mode.async && eng.global_version > 0) {
      if (std::optional<PayloadBundle> bundle = stages.make_download(ctx)) {
        pulled = send_to_cohort(fed, ctx, *bundle, mode, downlink_ms, faults);
      }
    }
  }
  if (!pulled.empty()) apply_downloads(stages, ctx, pulled, times);

  // --- local training, client-parallel --------------------------------------
  // Each slot touches only its own client (model + RNG stream), so chunking
  // is bitwise-invisible.
  {
    StageSpan span(times.local_update_seconds);
    exec::parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        stages.local_update(ctx, i, *ctx.active[i]);
      }
    });
  }
  // Crash points sit on the serial control path between stages: a process
  // death here loses the whole round's in-memory work, which resume must
  // re-derive bitwise from the last checkpoint.
  durable::crash_point("round:after_train");

  // --- uploads ----------------------------------------------------------------
  // Payload construction fans out per client; the sends run serially in slot
  // order. A lost bundle (any part) does not contribute. An upload arriving
  // after the deadline is a straggler: its bytes stay charged, the server
  // just stopped waiting. Sync's broadcast is a barrier, so its upload clock
  // starts after the slowest broadcast and each upload is judged by its own
  // latency; semisync's arrival adds the client's own downlink to the slice
  // start; async has no deadline, late just means stale.
  const double barrier_ms = mode.sync ? max_of(downlink_ms) : 0.0;
  const double deadline = mode.async ? std::numeric_limits<double>::infinity()
                          : mode.sync ? policy.upload_deadline_ms
                                      : slice_end;
  // Sync's tick: the last delivered arrival or the deadline, whichever is
  // first.
  double upload_ms_max = 0.0;
  std::vector<PendingUpload> due;  // sync: this round's uploads, slot order
  faults.clients_crashed += injector.advance(round, comm::RoundStage::kUpload);
  {
    StageSpan span(times.upload_seconds);
    stages.before_upload(ctx);
    std::vector<PayloadBundle> bundles(n);
    exec::parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        bundles[i] = stages.make_upload(ctx, i, *ctx.active[i]);
      }
    });
    // Adversarial injection, serial in slot order (StagePayload is
    // comm::Payload, so the injector mutates the typed bundles in place
    // before they are ever encoded for the wire).
    for (std::size_t i = 0; i < n; ++i) {
      if (fed.attacks.apply(round, ctx.active[i]->id, bundles[i].parts)) {
        ++faults.attacks_injected;
      }
    }
    for (Client* client : label_flipped) {
      robust::flip_labels(client->train_data.labels, fed.num_classes);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::uint32_t>(ctx.active[i]->id);
      BundleResult sent = send_bundle_reliable(
          fed.channel, ctx.active[i]->id, comm::kServerId, bundles[i], faults);
      if (!sent.wire) continue;
      const double arrival =
          mode.sync ? sent.latency_ms
                    : slice_start + downlink_ms[i] + sent.latency_ms;
      upload_ms_max = std::max(upload_ms_max, std::min(arrival, deadline));
      if (arrival > deadline) {
        ++faults.stragglers_excluded;
        continue;
      }
      PendingUpload up;
      up.client = id;
      up.trained_version =
          mode.sync ? eng.global_version : eng.pulled_version(id);
      up.arrival_ms = arrival;
      up.latency_ms = sent.latency_ms;
      up.weight = static_cast<float>(ctx.active[i]->train_data.size());
      // Sync leaves the send counter alone and keeps the slot instead.
      up.seq = mode.sync ? i : eng.next_seq++;
      up.parts = std::move(sent.wire->parts);
      (mode.sync ? due : eng.in_flight).push_back(std::move(up));
    }
  }
  durable::crash_point("round:after_upload");

  // --- arrivals up to the slice end, in deterministic event order ----------
  // (arrival_ms, client id, send sequence): simulated-time order with a
  // stable tie-break, independent of thread count and of which round the
  // upload was sent in. Sync's batch stays in slot order.
  if (!mode.sync) {
    for (auto it = eng.in_flight.begin(); it != eng.in_flight.end();) {
      if (it->arrival_ms <= slice_end) {
        due.push_back(std::move(*it));
        it = eng.in_flight.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(due.begin(), due.end(),
              [](const PendingUpload& a, const PendingUpload& b) {
                return std::tie(a.arrival_ms, a.client, a.seq) <
                       std::tie(b.arrival_ms, b.client, b.seq);
              });
  }

  // Inbound validation in event order. The adaptive weights-norm bound is
  // resolved once per round from the history of previously accepted uploads,
  // so every upload this round faces the same bound; the structural
  // reference is the oldest upload still in the current aggregation batch.
  comm::ValidationPolicy validation = policy.validation;
  if (validation.adaptive_weights_norm) {
    validation.max_weights_norm = fed.norm_tracker.bound_or(
        validation.max_weights_norm, validation.adaptive_norm_factor,
        validation.adaptive_min_history);
  }
  std::vector<PendingUpload> arrived;  // the sync/semisync round's batch
  const std::size_t flush_k =
      policy.buffer_k > 0
          ? policy.buffer_k
          : std::max<std::size_t>(1, (active_ids.size() + 1) / 2);
  bool aggregated = false;
  {
    StageSpan span(times.server_step_seconds);
    for (PendingUpload& up : due) {
      std::vector<PendingUpload>& batch = mode.async ? eng.buffer : arrived;
      const std::vector<std::vector<std::byte>>* reference =
          batch.empty() ? nullptr : &batch.front().parts;
      if (validation.enabled() &&
          comm::validate_bundle(up.parts, reference, validation)) {
        ++faults.rejected_contributions;
        continue;
      }
      faults.max_upload_latency_ms =
          std::max(faults.max_upload_latency_ms, up.latency_ms);
      if (policy.validation.adaptive_weights_norm) {
        for (const std::vector<std::byte>& part : up.parts) {
          if (comm::peek_kind(part) == comm::PayloadKind::kWeights) {
            fed.norm_tracker.record(comm::weights_part_norm(part));
          }
        }
      }
      batch.push_back(std::move(up));
      if (mode.async && eng.buffer.size() >= flush_k) {
        flush_uploads(stages, fed, ctx, eng.buffer, mode, 0, outcome, stats);
      }
    }

    // The sync/semisync tick: one aggregation of whatever arrived, gated by
    // quorum against this round's participant count. Semisync takes the
    // quorum on the arrivals, sync after the anomaly filter.
    if (!mode.async) {
      const std::size_t need = quorum_need(policy, n);
      if (!mode.sync && arrived.size() < need) {
        faults.quorum_misses = 1;
      } else {
        aggregated = flush_uploads(stages, fed, ctx, arrived, mode,
                                   mode.sync ? need : 0, outcome, stats);
      }
    }
  }
  durable::crash_point("round:after_aggregate");

  // --- post-step download (distillation family) ----------------------------
  // Async downlinks happen at the next wake (clients pull); only the
  // scripted-crash cursor still ticks so crash scripts fire identically
  // across modes. A sync or semisync round that did not aggregate has
  // nothing new to send.
  std::vector<double> download_ms(n, 0.0);
  if (mode.async || aggregated) {
    faults.clients_crashed +=
        injector.advance(round, comm::RoundStage::kDownload);
  }
  if (aggregated) {
    std::vector<std::optional<WireBundle>> received;
    {
      StageSpan span(times.download_seconds);
      if (std::optional<PayloadBundle> bundle = stages.make_download(ctx)) {
        received =
            send_to_cohort(fed, ctx, *bundle, mode, download_ms, faults);
      }
    }
    if (!received.empty()) apply_downloads(stages, ctx, received, times);
  }
  durable::crash_point("round:after_download");

  const double download_ms_max = max_of(download_ms);
  eng.now_ms = mode.sync
                   ? slice_start + (barrier_ms + upload_ms_max + download_ms_max)
                   : slice_end + download_ms_max;
  stats.round_end_ms = eng.now_ms;
  stats.buffered_uploads = eng.buffer.size();
  stats.inflight_uploads = eng.in_flight.size();
  outcome.engine = stats;
  return outcome;
}

}  // namespace fedpkd::fl
