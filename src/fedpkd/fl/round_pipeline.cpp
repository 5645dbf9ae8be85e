#include "fedpkd/fl/round_pipeline.hpp"

#include "fedpkd/comm/payload.hpp"
#include "fedpkd/fl/event_engine.hpp"

namespace fedpkd::fl {

comm::WeightsPayload WireBundle::weights(std::size_t part) const {
  return comm::decode_weights(parts.at(part));
}

comm::LogitsPayload WireBundle::logits(std::size_t part) const {
  return comm::decode_logits(parts.at(part));
}

comm::PrototypesPayload WireBundle::prototypes(std::size_t part) const {
  return comm::decode_prototypes(parts.at(part));
}

RoundOutcome RoundPipeline::run(RoundStages& stages, Federation& fed,
                                std::size_t round) {
  // Diff against the previous round's end-of-round snapshot (zero before the
  // first round) so hydration work done on this round's behalf *before* this
  // call — run_federation pins the cohort via begin_round first, and the
  // algorithm constructor warms its reference client — is charged to the
  // round it served rather than vanishing between snapshots.
  const PoolStats before = pool_snapshot_;
  RoundOutcome outcome = run_event_driven(stages, fed, round);
  if (fed.pool.virtual_mode()) {
    const PoolStats after = fed.pool.stats();
    pool_snapshot_ = after;
    PoolRoundStats delta;
    delta.hits = after.hits - before.hits;
    delta.misses = after.misses - before.misses;
    delta.hydrations = after.hydrations - before.hydrations;
    delta.dehydrations = after.dehydrations - before.dehydrations;
    delta.evictions = after.evictions - before.evictions;
    delta.warm_clients = fed.pool.warm_count();
    delta.hydration_seconds =
        after.hydration_seconds - before.hydration_seconds;
    outcome.pool = delta;
  }
  return outcome;
}

void StagedAlgorithm::run_round(Federation& fed, std::size_t round) {
  last_ = pipeline_.run(*this, fed, round);
}

}  // namespace fedpkd::fl
