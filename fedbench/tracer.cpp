#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

namespace fedbench {

namespace fl = fedpkd::fl;

namespace {

/// Small dense per-thread ids for the trace's thread tracks.
std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// Times `call` as a span of the serial buffer (slot < 0) or of its slot.
template <typename Call>
auto timed(Tracer& tracer, std::int64_t slot, const char* name,
           std::size_t round, Call&& call) {
  struct Guard {
    Tracer& tracer;
    std::int64_t slot;
    const char* name;
    std::size_t round;
    double start;
    std::size_t index;
    ~Guard() {
      if (slot < 0) {
        tracer.close(index);
      } else {
        tracer.record_slot(static_cast<std::size_t>(slot), name, "stages",
                           round, start, tracer.now());
      }
    }
  } guard{tracer, slot,        name,
          round,  tracer.now(), slot < 0 ? tracer.open(name, "stages", round)
                                         : std::size_t{0}};
  return call();
}

}  // namespace

double covered_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

double self_seconds(double parent_start, double parent_end,
                    const std::vector<std::pair<double, double>>& children) {
  std::vector<std::pair<double, double>> clipped;
  clipped.reserve(children.size());
  for (const auto& [start, end] : children) {
    clipped.emplace_back(std::max(start, parent_start),
                         std::min(end, parent_end));
  }
  return (parent_end - parent_start) - covered_seconds(std::move(clipped));
}

Tracer::Tracer(std::size_t expected_spans)
    : origin_(std::chrono::steady_clock::now()) {
  serial_.reserve(expected_spans);
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::size_t Tracer::open(const char* name, const char* cat,
                         std::size_t round) {
  Span span;
  span.name = name;
  span.cat = cat;
  span.start_s = now();
  span.end_s = span.start_s;
  span.parent = round_span_;
  span.round = static_cast<std::uint32_t>(round);
  span.thread = thread_id();
  serial_.push_back(span);
  return serial_.size() - 1;
}

void Tracer::close(std::size_t index) { serial_.at(index).end_s = now(); }

void Tracer::prepare_slots(std::size_t n, std::size_t reserve) {
  if (slots_.size() < n) slots_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i].reserve(slots_[i].size() + reserve);
  }
}

void Tracer::record_slot(std::size_t slot, const char* name, const char* cat,
                         std::size_t round, double start_s, double end_s) {
  Span span;
  span.name = name;
  span.cat = cat;
  span.start_s = start_s;
  span.end_s = end_s;
  span.parent = round_span_;
  span.round = static_cast<std::uint32_t>(round);
  span.slot = static_cast<std::int32_t>(slot);
  span.thread = thread_id();
  slots_.at(slot).push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out = serial_;
  for (const std::vector<Span>& slot : slots_) {
    out.insert(out.end(), slot.begin(), slot.end());
  }
  return out;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  out.precision(15);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << s.start_s * 1e6 << ",\"dur\":" << s.seconds() * 1e6
        << ",\"args\":{\"round\":" << s.round << ",\"slot\":" << s.slot
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("short write to " + path.string());
}

TracedStages::TracedStages(fl::RoundStages& inner, Tracer& tracer,
                           std::size_t capture_round)
    : inner_(inner), tracer_(tracer), capture_round_(capture_round) {}

void TracedStages::on_round_start(fl::RoundContext& ctx) {
  // Room for every concurrent hook of this round (local_update, make_upload,
  // and up to two apply_download calls per slot in an async wake).
  tracer_.prepare_slots(ctx.num_active(), 4);
  if (ctx.round == capture_round_) captured_uploads_.assign(ctx.num_active(), {});
  timed(tracer_, -1, "on_round_start", ctx.round,
        [&] { inner_.on_round_start(ctx); });
}

std::optional<fl::PayloadBundle> TracedStages::make_broadcast(
    fl::RoundContext& ctx) {
  auto bundle = timed(tracer_, -1, "make_broadcast", ctx.round,
                      [&] { return inner_.make_broadcast(ctx); });
  if (bundle && ctx.round == capture_round_) captured_downlinks_.push_back(*bundle);
  return bundle;
}

void TracedStages::local_update(fl::RoundContext& ctx, std::size_t i,
                                fl::Client& client) {
  timed(tracer_, static_cast<std::int64_t>(i), "local_update", ctx.round,
        [&] { inner_.local_update(ctx, i, client); });
}

void TracedStages::before_upload(fl::RoundContext& ctx) {
  timed(tracer_, -1, "before_upload", ctx.round,
        [&] { inner_.before_upload(ctx); });
}

fl::PayloadBundle TracedStages::make_upload(fl::RoundContext& ctx,
                                            std::size_t i,
                                            fl::Client& client) {
  fl::PayloadBundle bundle =
      timed(tracer_, static_cast<std::int64_t>(i), "make_upload", ctx.round,
            [&] { return inner_.make_upload(ctx, i, client); });
  if (ctx.round == capture_round_ && i < captured_uploads_.size()) {
    captured_uploads_[i] = bundle;
  }
  return bundle;
}

void TracedStages::server_step(fl::RoundContext& ctx,
                               std::vector<fl::Contribution>& contributions) {
  timed(tracer_, -1, "server_step", ctx.round,
        [&] { inner_.server_step(ctx, contributions); });
}

std::optional<fl::PayloadBundle> TracedStages::make_download(
    fl::RoundContext& ctx) {
  auto bundle = timed(tracer_, -1, "make_download", ctx.round,
                      [&] { return inner_.make_download(ctx); });
  if (bundle && ctx.round == capture_round_) captured_downlinks_.push_back(*bundle);
  return bundle;
}

void TracedStages::apply_download(fl::RoundContext& ctx, std::size_t i,
                                  fl::Client& client,
                                  const fl::WireBundle& bundle) {
  timed(tracer_, static_cast<std::int64_t>(i), "apply_download", ctx.round,
        [&] { inner_.apply_download(ctx, i, client, bundle); });
}

std::vector<fl::PayloadBundle> TracedStages::captured() const {
  std::vector<fl::PayloadBundle> out;
  for (const auto& upload : captured_uploads_) {
    if (upload) out.push_back(*upload);
  }
  out.insert(out.end(), captured_downlinks_.begin(), captured_downlinks_.end());
  return out;
}

}  // namespace fedbench
