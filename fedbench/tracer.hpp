#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "fedpkd/fl/round_pipeline.hpp"

namespace fedbench {

/// One recorded interval. Times are seconds since the tracer's origin.
struct Span {
  const char* name = "";  // static string: a hook or a benchmark call
  const char* cat = "";   // layer the call belongs to
  double start_s = 0.0;
  double end_s = 0.0;
  std::int32_t parent = -1;   // index of the enclosing serial span, -1 = root
  std::uint32_t round = 0;
  std::int32_t slot = -1;     // cohort slot of a concurrent hook, -1 = serial
  std::uint32_t thread = 0;   // small per-thread id, 0 = first thread seen

  double seconds() const { return end_s - start_s; }
};

/// Length of the union of [start, end) intervals (overlaps counted once).
double covered_seconds(std::vector<std::pair<double, double>> intervals);

/// Self time of a parent span: its duration minus the part of it that the
/// child intervals cover. Children are clipped to the parent.
double self_seconds(double parent_start, double parent_end,
                    const std::vector<std::pair<double, double>>& children);

/// Span recorder. Serial spans (the benchmark's own calls and the serial
/// hooks) go into one buffer; concurrent hooks write only to the buffer of
/// their own cohort slot, so recording needs no lock. Buffers are sized
/// before the concurrent stages run (prepare_slots is called from the serial
/// on_round_start hook) and written out once, at the end.
class Tracer {
 public:
  explicit Tracer(std::size_t expected_spans);

  double now() const;

  /// Opens a serial span under the current round span; returns its index.
  std::size_t open(const char* name, const char* cat, std::size_t round);
  void close(std::size_t index);
  /// Duration of the closed serial span `index`.
  double seconds(std::size_t index) const { return serial_.at(index).seconds(); }
  /// Marks `index` as the parent of spans recorded until the next call.
  void set_round_span(std::int32_t index) { round_span_ = index; }

  /// Serial: makes sure slots [0, n) have a buffer with room for `reserve`
  /// more spans each.
  void prepare_slots(std::size_t n, std::size_t reserve);
  /// Concurrent-safe for distinct slots.
  void record_slot(std::size_t slot, const char* name, const char* cat,
                   std::size_t round, double start_s, double end_s);

  /// Every span, serial first, then slot by slot.
  std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps),
  /// which Perfetto and chrome://tracing open offline.
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> serial_;
  std::vector<std::vector<Span>> slots_;
  std::int32_t round_span_ = -1;
};

/// A forwarding RoundStages decorator: every hook call is timed into the
/// tracer and then handed to the wrapped algorithm unchanged, so a run driven
/// through fl::RoundPipeline::run with this decorator computes exactly what
/// the undecorated algorithm computes. The bundles of one chosen round are
/// copied out for the codec replay probe.
class TracedStages final : public fedpkd::fl::RoundStages {
 public:
  TracedStages(fedpkd::fl::RoundStages& inner, Tracer& tracer,
               std::size_t capture_round);

  void on_round_start(fedpkd::fl::RoundContext& ctx) override;
  std::optional<fedpkd::fl::PayloadBundle> make_broadcast(
      fedpkd::fl::RoundContext& ctx) override;
  void local_update(fedpkd::fl::RoundContext& ctx, std::size_t i,
                    fedpkd::fl::Client& client) override;
  void before_upload(fedpkd::fl::RoundContext& ctx) override;
  fedpkd::fl::PayloadBundle make_upload(fedpkd::fl::RoundContext& ctx,
                                        std::size_t i,
                                        fedpkd::fl::Client& client) override;
  void server_step(fedpkd::fl::RoundContext& ctx,
                   std::vector<fedpkd::fl::Contribution>& contributions) override;
  std::optional<fedpkd::fl::PayloadBundle> make_download(
      fedpkd::fl::RoundContext& ctx) override;
  void apply_download(fedpkd::fl::RoundContext& ctx, std::size_t i,
                      fedpkd::fl::Client& client,
                      const fedpkd::fl::WireBundle& bundle) override;

  /// Bundles built in the capture round: uploads by slot, then downlinks.
  std::vector<fedpkd::fl::PayloadBundle> captured() const;

 private:
  fedpkd::fl::RoundStages& inner_;
  Tracer& tracer_;
  std::size_t capture_round_;
  std::vector<std::optional<fedpkd::fl::PayloadBundle>> captured_uploads_;
  std::vector<fedpkd::fl::PayloadBundle> captured_downlinks_;
};

}  // namespace fedbench
