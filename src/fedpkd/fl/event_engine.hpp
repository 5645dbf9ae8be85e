#pragma once

#include "fedpkd/fl/round_pipeline.hpp"

/// The round engine behind RoundPipeline::run, for every RoundMode
/// (DESIGN.md §9, §14).
///
/// Simulated time, not wall clock: every round is one wake slice on the
/// simulated-ms clock (Federation::engine.now_ms). Events — client wakes,
/// upload arrivals, the aggregation tick — are processed in deterministic
/// order (wakes at the slice start in slot order, then arrivals sorted by
/// (arrival_ms, client id, send sequence); a sync round keeps slot order),
/// all channel traffic and server reductions run serially, and concurrency
/// only fans out per-slot compute. That keeps every mode bitwise
/// thread-count-invariant and, with the engine state in checkpoint v5,
/// bitwise crash-resumable mid-buffer.

namespace fedpkd::fl {

/// One round of `stages` under fed.policy.mode. Called by RoundPipeline::run;
/// throws std::invalid_argument on an unusable policy (semisync without a
/// finite deadline, async without a positive wake interval).
RoundOutcome run_event_driven(RoundStages& stages, Federation& fed,
                              std::size_t round);

}  // namespace fedpkd::fl
