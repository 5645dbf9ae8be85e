#include "fedpkd/fl/engine_state.hpp"

#include <algorithm>

#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::fl {

bool EngineState::has_in_flight(std::uint32_t client) const {
  return std::any_of(
      in_flight.begin(), in_flight.end(),
      [client](const PendingUpload& up) { return up.client == client; });
}

std::uint64_t EngineState::pulled_version(std::uint32_t client) const {
  const auto it = std::lower_bound(
      pulled_.begin(), pulled_.end(), client,
      [](const auto& entry, std::uint32_t id) { return entry.first < id; });
  return it != pulled_.end() && it->first == client ? it->second : 0;
}

void EngineState::set_pulled(std::uint32_t client, std::uint64_t version) {
  const auto it = std::lower_bound(
      pulled_.begin(), pulled_.end(), client,
      [](const auto& entry, std::uint32_t id) { return entry.first < id; });
  if (it != pulled_.end() && it->first == client) {
    it->second = version;
  } else {
    pulled_.insert(it, {client, version});
  }
}

namespace {

// Each upload is at least 48 bytes: the six scalars and the part count.
constexpr std::size_t kMinUploadBytes = 4 + 8 + 8 + 8 + 4 + 8 + 8;

void persist_upload(tensor::StateIo& io, EngineState::PendingUpload& up) {
  io.u32(up.client);
  io.u64(up.trained_version);
  io.f64(up.arrival_ms);
  io.f64(up.latency_ms);
  io.f32(up.weight);
  io.u64(up.seq);
  io.seq(up.parts, 8, "engine state: upload parts",
         [&](std::vector<std::byte>& part) { io.blob(part); });
}

}  // namespace

void EngineState::persist(tensor::StateIo& io) {
  io.f64(now_ms);
  io.u64(global_version);
  io.u64(next_seq);
  io.seq(pulled_, 12, "engine state: cursors", [&](auto& cursor) {
    io.u32(cursor.first);
    io.u64(cursor.second);
  });
  if (io.reading() &&
      !std::is_sorted(pulled_.begin(), pulled_.end(),
                      [](const auto& a, const auto& b) {
                        return a.first < b.first;
                      })) {
    throw tensor::DecodeError("engine state: unsorted cursors");
  }
  const auto upload = [&](PendingUpload& up) { persist_upload(io, up); };
  io.seq(in_flight, kMinUploadBytes, "engine state: in-flight queue", upload);
  io.seq(buffer, kMinUploadBytes, "engine state: buffer", upload);
}

}  // namespace fedpkd::fl
