#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedpkd::tensor {
class StateIo;
}

namespace fedpkd::fl {

/// Persistent state of the event-driven round engine (semisync/async modes):
/// the simulated-ms clock, the global model version, the serialized event
/// queue of in-flight uploads, the server's aggregation buffer, and each
/// client's staleness cursor (the global version it last pulled). Sync
/// rounds advance only the clock.
///
/// Everything here is deterministic under the fault plan's seed — events are
/// ordered by (arrival_ms, client id, sequence number), all mutations run
/// serially — so the whole struct rides in checkpoint v5 and a mid-buffer
/// crash-resume continues bitwise: a buffered-but-unflushed upload or one
/// still crossing the simulated wire survives the restart byte for byte.
struct EngineState {
  /// One upload crossing the simulated wire (in_flight) or parked in the
  /// server's aggregation buffer (buffer). The wire bytes are captured at
  /// send time, so the upload outlives its sender: a client that crashes (or
  /// is dehydrated by the virtual pool) after sending still contributes.
  struct PendingUpload {
    std::uint32_t client = 0;          // sender's comm::NodeId
    std::uint64_t trained_version = 0; // global version the sender trained on
    double arrival_ms = 0.0;           // simulated arrival at the server
    double latency_ms = 0.0;           // transport latency of the bundle
    float weight = 0.0f;               // |D_c| before any staleness discount
    std::uint64_t seq = 0;             // send-order tie-breaker
    std::vector<std::vector<std::byte>> parts;  // verified wire bytes
  };

  /// Simulated wall clock in milliseconds, advanced by every round.
  double now_ms = 0.0;
  /// Incremented by every server aggregation (flush); the staleness of an
  /// upload is global_version - trained_version at flush time.
  std::uint64_t global_version = 0;
  /// Monotonic send counter; the last tie-breaker of the event order.
  std::uint64_t next_seq = 0;
  /// Uploads sent but not yet arrived, in send order.
  std::vector<PendingUpload> in_flight;
  /// Arrived + validated uploads awaiting the K-th (async mode only); may be
  /// non-empty across rounds and checkpoints.
  std::vector<PendingUpload> buffer;

  /// True if `client` has an upload still crossing the wire (async clients
  /// run one training at a time, so such a client skips its wake).
  bool has_in_flight(std::uint32_t client) const;

  /// The global version `client` last pulled (0 before its first download).
  std::uint64_t pulled_version(std::uint32_t client) const;
  void set_pulled(std::uint32_t client, std::uint64_t version);

  /// Checkpoint state, through the state codec.
  void persist(tensor::StateIo& io);

 private:
  /// Per-client staleness cursors, ascending by client id.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> pulled_;
};

}  // namespace fedpkd::fl
