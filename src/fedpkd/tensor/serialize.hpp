#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fedpkd/tensor/rng.hpp"
#include "fedpkd/tensor/tensor.hpp"

namespace fedpkd::tensor {

/// Thrown by every decoder in the tensor/comm serialization stack on
/// malformed input: truncated buffers, bad magic, absurd ranks, dimension
/// products that overflow, kind-tag mismatches, trailing bytes. Derives from
/// std::runtime_error so existing catch sites keep working; catching
/// DecodeError specifically distinguishes "hostile/corrupt bytes" from other
/// runtime failures (I/O, config).
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Byte-exact binary serialization for tensors.
///
/// Wire format (little-endian):
///   u32 magic 'FPKT' | u8 rank | u64 dim[rank] | f32 payload[numel]
///
/// The communication layer charges clients for exactly these bytes, so the
/// format intentionally has no compression or padding: a logits tensor of
/// |D_p| x N floats costs |D_p|*N*4 bytes + a small header, matching the
/// analytic accounting in the paper (Fig. 3 / Table I).

/// Serializes `t`, appending to `out`. Returns the number of bytes appended.
std::size_t encode_tensor(const Tensor& t, std::vector<std::byte>& out);

/// Convenience: serialize into a fresh buffer.
std::vector<std::byte> encode_tensor(const Tensor& t);

/// Deserializes one tensor starting at `offset` within `bytes`; advances
/// `offset` past the consumed region. Throws DecodeError on any malformed
/// input (bad magic, truncated payload, absurd rank, numel overflow) — it
/// never reads past the buffer, and it validates the element count against
/// the remaining bytes *before* allocating, so a hostile header cannot
/// trigger a multi-gigabyte allocation.
Tensor decode_tensor(std::span<const std::byte> bytes, std::size_t& offset);

/// Deserializes a buffer that contains exactly one tensor.
Tensor decode_tensor(std::span<const std::byte> bytes);

/// Exact number of bytes encode_tensor will produce for shape `s`.
std::size_t encoded_size(const Shape& s);

/// -- Small scalar helpers (shared by the comm payload codecs) ---------------

void put_u32(std::uint32_t v, std::vector<std::byte>& out);
void put_u64(std::uint64_t v, std::vector<std::byte>& out);
void put_f32(float v, std::vector<std::byte>& out);
void put_f64(double v, std::vector<std::byte>& out);
std::uint32_t get_u32(std::span<const std::byte> bytes, std::size_t& offset);
std::uint64_t get_u64(std::span<const std::byte> bytes, std::size_t& offset);
float get_f32(std::span<const std::byte> bytes, std::size_t& offset);
double get_f64(std::span<const std::byte> bytes, std::size_t& offset);

/// Serializes a full Rng (xoshiro lanes plus the Box-Muller cache), so that
/// a restored generator replays the exact sequence of the original — the
/// primitive behind bitwise crash-resume (fl::checkpoint format v2).
void put_rng(const Rng& rng, std::vector<std::byte>& out);
Rng get_rng(std::span<const std::byte> bytes, std::size_t& offset);

/// Rejects a claimed element count `n` that cannot fit in the bytes left
/// after `offset` at `min_bytes_each` bytes per element. Decoders call it
/// *before* they reserve or allocate for the count, so a forged count field
/// never turns into a gigabyte allocation; the comparison divides, so it
/// cannot wrap. Throws DecodeError naming `what`.
void check_count(std::uint64_t n, std::size_t min_bytes_each,
                 std::span<const std::byte> bytes, std::size_t offset,
                 const char* what);

/// The state codec: one object that either writes or reads checkpointed
/// state, so each persisted record states its byte layout once, in a single
/// function taking a StateIo. In write mode every call appends the field's
/// current value; in read mode the same call overwrites the field with the
/// decoded value. Primitives and byte order are the ones above
/// (little-endian, tensors in the 'FPKT' format, Rng as put_rng).
///
/// The reader owns the safety rules, so records do not repeat them:
///  * count() checks every element count against the remaining bytes times
///    a minimum encoded element size before the caller allocates;
///  * lengths are compared as `len > remaining`, never `offset + len > size`;
///  * malformed bytes throw DecodeError. Configuration mismatches a record
///    detects itself (wrong algorithm, client count, pool mode) stay plain
///    std::runtime_error.
/// Work that only one direction needs (a re-sort, a rebuild, a mismatch
/// check) stays in the record's function behind `if (io.reading())`.
class StateIo {
 public:
  /// Write mode: appends to `out`.
  static StateIo writer(std::vector<std::byte>& out) {
    return StateIo(&out, {});
  }
  /// Read mode: decodes `bytes` from the front.
  static StateIo reader(std::span<const std::byte> bytes) {
    return StateIo(nullptr, bytes);
  }

  bool reading() const { return out_ == nullptr; }
  /// Read mode: bytes consumed so far.
  std::size_t offset() const { return offset_; }

  void u8(std::uint8_t& v);
  void u32(std::uint32_t& v);
  void i32(std::int32_t& v);  // two's complement in a u32
  void u64(std::uint64_t& v);
  void size(std::size_t& v);  // a u64
  void f32(float& v);
  void f64(double& v);
  void flag(bool& v);         // one byte; any non-zero byte reads as true
  void string(std::string& s);  // u32 length + bytes
  void rng(Rng& rng);
  void tensor(Tensor& t);
  void blob(std::vector<std::byte>& b);  // u64 length + bytes, one range copy

  /// An element count: writes `n` as a u64 and returns it; reads the count,
  /// rejects it unless that many elements of `min_bytes_each` fit in the
  /// remaining bytes, and returns it.
  std::size_t count(std::size_t n, std::size_t min_bytes_each,
                    const char* what);
  /// count() with a u32 on the wire.
  std::size_t count32(std::size_t n, std::size_t min_bytes_each,
                      const char* what);

  /// Read mode: the next `n` bytes, consumed. Throws DecodeError naming
  /// `what` when fewer remain.
  std::span<const std::byte> take(std::size_t n, const char* what);

  /// A counted vector: the count, then `element(v[i])` for every element.
  /// Read mode resizes `v` to the checked count first.
  template <class T, class Element>
  void seq(std::vector<T>& v, std::size_t min_bytes_each, const char* what,
           Element&& element) {
    v.resize(count(v.size(), min_bytes_each, what));
    for (T& x : v) element(x);
  }

  /// An optional: a presence flag, then `fields(*v)` when present. Read mode
  /// replaces `v`.
  template <class T, class Fields>
  void optional(std::optional<T>& v, Fields&& fields) {
    bool has = v.has_value();
    flag(has);
    if (!has) {
      v.reset();
      return;
    }
    if (reading()) v.emplace();
    fields(*v);
  }

  /// An ordered map's `n` entries in the map's order (the caller states the
  /// count, which sets its width); `entry(key, value)` states one entry's
  /// layout. Read mode replaces the map's contents.
  template <class Map, class Entry>
  void entries(Map& m, std::size_t n, Entry&& entry) {
    if (!reading()) {
      for (auto& [key, value] : m) {
        typename Map::key_type k = key;
        entry(k, value);
      }
      return;
    }
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type k{};
      typename Map::mapped_type value{};
      entry(k, value);
      m.emplace(k, std::move(value));
    }
  }

 private:
  StateIo(std::vector<std::byte>* out, std::span<const std::byte> in)
      : out_(out), in_(in) {}

  /// One field through a put_*/get_* primitive pair.
  template <class T, class Put, class Get>
  void field(T& v, Put put, Get get) {
    if (reading()) {
      v = get(in_, offset_);
    } else {
      put(v, *out_);
    }
  }

  std::vector<std::byte>* out_ = nullptr;  // null in read mode
  std::span<const std::byte> in_;
  std::size_t offset_ = 0;
};

}  // namespace fedpkd::tensor
