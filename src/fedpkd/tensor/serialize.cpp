#include "fedpkd/tensor/serialize.hpp"

#include <cstring>
#include <stdexcept>

namespace fedpkd::tensor {

namespace {
constexpr std::uint32_t kMagic = 0x464b5054u;  // 'FPKT'
constexpr std::uint8_t kMaxRank = 8;

void require(bool cond, const char* msg) {
  if (!cond) throw DecodeError(msg);
}
}  // namespace

void put_u32(std::uint32_t v, std::vector<std::byte>& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::uint64_t v, std::vector<std::byte>& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void put_f32(float v, std::vector<std::byte>& out) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(bits, out);
}

std::uint32_t get_u32(std::span<const std::byte> bytes, std::size_t& offset) {
  require(offset <= bytes.size() && bytes.size() - offset >= 4,
          "get_u32: truncated");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[offset + i]) << (8 * i);
  }
  offset += 4;
  return v;
}

std::uint64_t get_u64(std::span<const std::byte> bytes, std::size_t& offset) {
  require(offset <= bytes.size() && bytes.size() - offset >= 8,
          "get_u64: truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[offset + i]) << (8 * i);
  }
  offset += 8;
  return v;
}

float get_f32(std::span<const std::byte> bytes, std::size_t& offset) {
  const std::uint32_t bits = get_u32(bytes, offset);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::size_t encoded_size(const Shape& s) {
  return 4 + 1 + 8 * s.size() + 4 * shape_numel(s);
}

std::size_t encode_tensor(const Tensor& t, std::vector<std::byte>& out) {
  const std::size_t before = out.size();
  if (t.rank() > kMaxRank) {
    throw std::invalid_argument("encode_tensor: rank too large");
  }
  put_u32(kMagic, out);
  out.push_back(static_cast<std::byte>(t.rank()));
  for (std::size_t d : t.shape()) put_u64(d, out);
  const std::size_t payload = 4 * t.numel();
  const std::size_t base = out.size();
  out.resize(base + payload);
  if (payload > 0) std::memcpy(out.data() + base, t.data(), payload);
  return out.size() - before;
}

std::vector<std::byte> encode_tensor(const Tensor& t) {
  std::vector<std::byte> out;
  out.reserve(encoded_size(t.shape()));
  encode_tensor(t, out);
  return out;
}

Tensor decode_tensor(std::span<const std::byte> bytes, std::size_t& offset) {
  require(get_u32(bytes, offset) == kMagic, "decode_tensor: bad magic");
  require(offset < bytes.size(), "decode_tensor: truncated rank");
  const auto rank = static_cast<std::uint8_t>(bytes[offset++]);
  require(rank <= kMaxRank, "decode_tensor: rank too large");
  Shape shape(rank);
  std::size_t n = rank == 0 ? 0 : 1;  // shape_numel convention: {} is empty
  for (std::uint8_t i = 0; i < rank; ++i) {
    const std::uint64_t d = get_u64(bytes, offset);
    require(d <= (1ull << 32), "decode_tensor: dimension too large");
    shape[i] = static_cast<std::size_t>(d);
    // Overflow-proof running product: an adversarial header whose dimension
    // product wraps around 2^64 must not defeat the truncation check below
    // (offset + 4*n would wrap too, passing the bound with n huge).
    require(d == 0 || n <= SIZE_MAX / static_cast<std::size_t>(d),
            "decode_tensor: element count overflows");
    n *= static_cast<std::size_t>(d);
  }
  // Validate against the remaining bytes *before* allocating: division
  // cannot wrap, and a hostile header cannot demand gigabytes.
  require(n <= (bytes.size() - offset) / 4, "decode_tensor: truncated payload");
  std::vector<float> values(n);
  if (n > 0) std::memcpy(values.data(), bytes.data() + offset, 4 * n);
  offset += 4 * n;
  return Tensor(std::move(shape), std::move(values));
}

Tensor decode_tensor(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  Tensor t = decode_tensor(bytes, offset);
  if (offset != bytes.size()) {
    throw DecodeError("decode_tensor: trailing bytes");
  }
  return t;
}

void put_f64(double v, std::vector<std::byte>& out) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits, out);
}

double get_f64(std::span<const std::byte> bytes, std::size_t& offset) {
  const std::uint64_t bits = get_u64(bytes, offset);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void put_rng(const Rng& rng, std::vector<std::byte>& out) {
  const RngState state = rng.state();
  for (std::uint64_t lane : state.lanes) put_u64(lane, out);
  put_f64(state.cached_normal, out);
  out.push_back(static_cast<std::byte>(state.has_cached_normal ? 1 : 0));
}

Rng get_rng(std::span<const std::byte> bytes, std::size_t& offset) {
  RngState state;
  for (std::uint64_t& lane : state.lanes) lane = get_u64(bytes, offset);
  state.cached_normal = get_f64(bytes, offset);
  if (offset >= bytes.size()) throw DecodeError("get_rng: truncated flag");
  state.has_cached_normal = bytes[offset++] != std::byte{0};
  Rng rng(0);
  rng.set_state(state);
  return rng;
}

void check_count(std::uint64_t n, std::size_t min_bytes_each,
                 std::span<const std::byte> bytes, std::size_t offset,
                 const char* what) {
  if (n > (bytes.size() - offset) / min_bytes_each) {
    throw DecodeError(std::string(what) + ": count exceeds buffer");
  }
}

// -- StateIo ------------------------------------------------------------------

void StateIo::u8(std::uint8_t& v) {
  if (!reading()) {
    out_->push_back(static_cast<std::byte>(v));
    return;
  }
  v = static_cast<std::uint8_t>(take(1, "state: truncated byte")[0]);
}

void StateIo::u32(std::uint32_t& v) { field(v, put_u32, get_u32); }

void StateIo::i32(std::int32_t& v) {
  auto bits = static_cast<std::uint32_t>(v);
  u32(bits);
  v = static_cast<std::int32_t>(bits);
}

void StateIo::u64(std::uint64_t& v) { field(v, put_u64, get_u64); }

void StateIo::size(std::size_t& v) {
  std::uint64_t wide = v;
  u64(wide);
  v = static_cast<std::size_t>(wide);
}

void StateIo::f32(float& v) { field(v, put_f32, get_f32); }

void StateIo::f64(double& v) { field(v, put_f64, get_f64); }

void StateIo::flag(bool& v) {
  std::uint8_t byte = v ? 1 : 0;
  u8(byte);
  v = byte != 0;
}

void StateIo::string(std::string& s) {
  auto n = static_cast<std::uint32_t>(s.size());
  u32(n);
  if (!reading()) {
    const auto* chars = reinterpret_cast<const std::byte*>(s.data());
    out_->insert(out_->end(), chars, chars + n);
    return;
  }
  const std::span<const std::byte> chars = take(n, "state: truncated string");
  s.assign(reinterpret_cast<const char*>(chars.data()), chars.size());
}

void StateIo::rng(Rng& rng) { field(rng, put_rng, get_rng); }

void StateIo::tensor(Tensor& t) {
  if (reading()) {
    t = decode_tensor(in_, offset_);
  } else {
    encode_tensor(t, *out_);
  }
}

void StateIo::blob(std::vector<std::byte>& b) {
  std::size_t n = b.size();
  size(n);
  if (!reading()) {
    out_->insert(out_->end(), b.begin(), b.end());
    return;
  }
  const std::span<const std::byte> bytes = take(n, "state: truncated blob");
  b.assign(bytes.begin(), bytes.end());
}

std::size_t StateIo::count(std::size_t n, std::size_t min_bytes_each,
                           const char* what) {
  size(n);
  if (reading()) check_count(n, min_bytes_each, in_, offset_, what);
  return n;
}

std::size_t StateIo::count32(std::size_t n, std::size_t min_bytes_each,
                             const char* what) {
  auto narrow = static_cast<std::uint32_t>(n);
  u32(narrow);
  if (reading()) check_count(narrow, min_bytes_each, in_, offset_, what);
  return narrow;
}

std::span<const std::byte> StateIo::take(std::size_t n, const char* what) {
  if (n > in_.size() - offset_) throw DecodeError(what);
  const std::span<const std::byte> bytes = in_.subspan(offset_, n);
  offset_ += n;
  return bytes;
}

}  // namespace fedpkd::tensor
