#include "fedpkd/fl/durable_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <system_error>

#include "fedpkd/comm/frame.hpp"
#include "fedpkd/tensor/serialize.hpp"

namespace fedpkd::fl::durable {

namespace {

constexpr std::uint32_t kFooterMagic = 0x464b5053;    // 'FPKS'
constexpr std::uint32_t kManifestMagic = 0x464b4d31;  // 'FKM1'

[[noreturn]] void throw_errno(const std::string& what,
                              const std::filesystem::path& path, int err) {
  throw std::runtime_error(what + " '" + path.string() +
                           "': " + std::strerror(err));
}

/// The 16-byte integrity footer: u32 CRC32 of the payload | u64 payload
/// size | u32 magic 'FPKS'.
struct Footer {
  std::uint32_t crc = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t magic = kFooterMagic;

  void persist(tensor::StateIo& io) {
    io.u32(crc);
    io.u64(payload_size);
    io.u32(magic);
  }
};

/// The chain manifest payload: u32 magic 'FKM1' | u64 last-good generation.
struct Manifest {
  std::uint32_t magic = kManifestMagic;
  std::uint64_t generation = 0;

  void persist(tensor::StateIo& io) {
    io.u32(magic);
    io.u64(generation);
  }
};

/// RAII fd so every error path closes the descriptor exactly once.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }
  /// Hands ownership to the caller (who must check close()).
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

void write_all(int fd, std::span<const std::byte> bytes,
               const std::filesystem::path& path) {
  const std::byte* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ::ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed for", path, errno);
    }
    p += static_cast<std::size_t>(n);
    left -= static_cast<std::size_t>(n);
  }
}

/// Best-effort fsync of the parent directory so the rename itself is
/// durable. Some filesystems reject directory fsync; that is not an error
/// the caller can act on, so failures here are swallowed.
void fsync_parent_dir(const std::filesystem::path& path) {
  std::filesystem::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

struct ArmedCrashPoint {
  std::string name;
  std::size_t hits_remaining = 1;
  CrashAction action = CrashAction::kAbort;
  bool armed = false;
};

// Crash points fire on the serial control path (save/commit/round
// boundaries), so a plain global matches the injector's usage; the round
// pipeline never hits them from worker threads.
ArmedCrashPoint g_crash;

}  // namespace

const std::vector<std::string>& crash_point_names() {
  static const std::vector<std::string> names = {
      "save:pre_write",        // before any bytes reach the tmp file
      "save:mid_write",        // tmp file half written, not fsynced
      "save:pre_rename",       // tmp durable, target still the old file
      "save:post_rename",      // target renamed, directory not fsynced
      "chain:pre_commit",      // before the generation file is written
      "chain:post_data",       // generation durable, manifest still old
      "chain:post_manifest",   // manifest flipped, prune not yet run
      "round:after_train",     // local updates done, nothing uploaded
      "round:after_upload",    // uploads sent, none aggregated yet
      "round:after_aggregate", // aggregation tick done, downloads not sent
      "round:after_download",  // full round applied, metrics not recorded
      "engine:after_flush",    // one batch flushed into the server model
      "run:before_checkpoint", // round complete, checkpoint not started
      "run:after_checkpoint",  // checkpoint committed, loop not advanced
  };
  return names;
}

void arm_crash_point(const std::string& spec, CrashAction action) {
  std::string name = spec;
  std::size_t ordinal = 1;
  // Names contain ':' so the ordinal separator is '@' (e.g. "round:after_train@3").
  if (const auto at = spec.rfind('@'); at != std::string::npos) {
    name = spec.substr(0, at);
    const std::string count = spec.substr(at + 1);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(count.c_str(), &end, 10);
    if (count.empty() || end == nullptr || *end != '\0' || parsed == 0) {
      throw std::invalid_argument("crash point ordinal must be a positive "
                                  "integer: '" + spec + "'");
    }
    ordinal = static_cast<std::size_t>(parsed);
  }
  const auto& names = crash_point_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw std::invalid_argument("unknown crash point '" + name + "'");
  }
  g_crash = ArmedCrashPoint{name, ordinal, action, true};
}

void disarm_crash_points() { g_crash = ArmedCrashPoint{}; }

bool crash_points_armed() { return g_crash.armed; }

void crash_point(std::string_view name) {
  if (!g_crash.armed || g_crash.name != name) return;
  if (--g_crash.hits_remaining > 0) return;
  // One-shot: disarm before firing so a resumed in-process run (kThrow) or
  // a catch-and-continue caller never re-triggers the same fault.
  const CrashAction action = g_crash.action;
  const std::string fired = g_crash.name;
  g_crash = ArmedCrashPoint{};
  if (action == CrashAction::kThrow) throw CrashPointError(fired);
  // The point of kAbort is to model a hard crash: no destructors, no
  // stream flushes, no atexit handlers.
  std::fflush(nullptr);
  std::_Exit(kCrashExitStatus);
}

bool arm_crash_points_from_env() {
  const char* spec = std::getenv("FEDPKD_CRASH_AT");
  if (spec == nullptr || *spec == '\0') return false;
  arm_crash_point(spec, CrashAction::kAbort);
  return true;
}

void append_footer(std::vector<std::byte>& payload) {
  Footer footer{.crc = comm::crc32(payload), .payload_size = payload.size()};
  auto io = tensor::StateIo::writer(payload);
  footer.persist(io);
}

std::size_t verified_payload_size(std::span<const std::byte> sealed,
                                  const std::string& origin) {
  if (sealed.size() < kFooterSize) {
    throw std::runtime_error(origin + ": file too small for integrity footer");
  }
  Footer footer;
  auto io = tensor::StateIo::reader(sealed.last(kFooterSize));
  footer.persist(io);
  if (footer.magic != kFooterMagic) {
    throw std::runtime_error(origin + ": integrity footer magic mismatch");
  }
  if (footer.payload_size != sealed.size() - kFooterSize) {
    throw std::runtime_error(origin + ": recorded payload size " +
                             std::to_string(footer.payload_size) +
                             " disagrees with file size");
  }
  const auto payload_size = static_cast<std::size_t>(footer.payload_size);
  if (footer.crc != comm::crc32(sealed.first(payload_size))) {
    throw std::runtime_error(origin + ": CRC32 mismatch (torn write or "
                             "bit corruption)");
  }
  return payload_size;
}

void IoFaultInjector::set_plan(const IoFaultPlan& plan) {
  const auto check = [](double p, const char* what) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument(std::string("IoFaultPlan: ") + what +
                                  " must be in [0,1]");
    }
  };
  check(plan.short_write_probability, "short-write probability");
  check(plan.torn_rename_probability, "torn-rename probability");
  check(plan.bit_flip_probability, "bit-flip probability");
  plan_ = plan;
  written_ = 0;
  // Independent per-fault-type streams split from one seed, same idiom as
  // comm::FaultInjector: enabling bit flips never shifts the rename dice.
  const tensor::Rng base(plan_.seed);
  short_rng_ = base.split(0x73687274);   // 'shrt'
  rename_rng_ = base.split(0x726e6d65);  // 'rnme'
  flip_rng_ = base.split(0x666c6970);    // 'flip'
}

bool IoFaultInjector::roll_short_write() {
  if (plan_.short_write_probability <= 0.0) return false;
  return short_rng_.uniform() < plan_.short_write_probability;
}

bool IoFaultInjector::roll_torn_rename() {
  if (plan_.torn_rename_probability <= 0.0) return false;
  return rename_rng_.uniform() < plan_.torn_rename_probability;
}

bool IoFaultInjector::maybe_flip_bit(std::vector<std::byte>& bytes) {
  if (plan_.bit_flip_probability <= 0.0 || bytes.empty()) return false;
  if (flip_rng_.uniform() >= plan_.bit_flip_probability) return false;
  const std::uint64_t bit = flip_rng_.uniform_index(8 * bytes.size());
  bytes[static_cast<std::size_t>(bit / 8)] ^=
      static_cast<std::byte>(1u << (bit % 8));
  return true;
}

bool IoFaultInjector::charge(std::size_t nbytes) {
  if (plan_.enospc_after_bytes == 0) return true;
  if (written_ + nbytes > plan_.enospc_after_bytes) return false;
  written_ += nbytes;
  return true;
}

void atomic_write_file(const std::filesystem::path& path,
                       std::span<const std::byte> bytes,
                       IoFaultInjector* io) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  crash_point("save:pre_write");

  std::vector<std::byte> staged;
  std::span<const std::byte> to_write = bytes;
  bool fail_short = false;
  if (io != nullptr) {
    if (!io->charge(bytes.size())) {
      throw_errno("write failed for", tmp, ENOSPC);
    }
    fail_short = io->roll_short_write();
    staged.assign(bytes.begin(), bytes.end());
    io->maybe_flip_bit(staged);
    to_write = staged;
  }

  {
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    if (fd.get() < 0) throw_errno("cannot open", tmp, errno);
    if (fail_short) {
      // Model a mid-write crash/ENOSPC: a prefix lands, the call fails.
      write_all(fd.get(), to_write.first(to_write.size() / 2), tmp);
      throw_errno("write failed for", tmp, ENOSPC);
    }
    write_all(fd.get(), to_write.first(to_write.size() / 2), tmp);
    crash_point("save:mid_write");
    write_all(fd.get(), to_write.subspan(to_write.size() / 2), tmp);
    if (::fsync(fd.get()) != 0) throw_errno("fsync failed for", tmp, errno);
    // close() can surface deferred write errors (NFS, quotas); a silent
    // short write here was exactly the bug in the old write_file.
    if (::close(fd.release()) != 0) throw_errno("close failed for", tmp, errno);
  }

  crash_point("save:pre_rename");
  if (io != nullptr && io->roll_torn_rename()) {
    // Simulated process death between fsync(tmp) and rename: the durable
    // tmp file stays behind, the target keeps its old contents.
    throw std::runtime_error("injected torn rename: '" + tmp.string() +
                             "' written but not renamed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("rename failed onto", path, errno);
  }
  crash_point("save:post_rename");
  fsync_parent_dir(path);
}

std::vector<std::byte> read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path.string() +
                             "' for reading");
  }
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
  }
  if (!in) {
    throw std::runtime_error("failed to read '" + path.string() + "'");
  }
  return bytes;
}

GenerationChain::GenerationChain(std::filesystem::path stem, std::size_t keep,
                                 IoFaultInjector* io)
    : stem_(std::move(stem)), keep_(keep == 0 ? 1 : keep), io_(io) {}

std::filesystem::path GenerationChain::generation_path(
    std::size_t generation) const {
  return stem_.string() + "." + std::to_string(generation);
}

std::filesystem::path GenerationChain::manifest_path() const {
  return stem_.string() + ".manifest";
}

std::size_t GenerationChain::manifest_generation() const {
  std::error_code ec;
  if (!std::filesystem::exists(manifest_path(), ec)) return 0;
  try {
    const std::vector<std::byte> sealed = read_file_bytes(manifest_path());
    const std::size_t payload =
        verified_payload_size(sealed, manifest_path().string());
    if (payload != 12) return 0;
    Manifest manifest;
    auto io = tensor::StateIo::reader(sealed);
    manifest.persist(io);
    if (manifest.magic != kManifestMagic) return 0;
    return static_cast<std::size_t>(manifest.generation);
  } catch (const std::runtime_error&) {
    return 0;  // torn/corrupt manifest: caller falls back to a scan
  }
}

std::size_t GenerationChain::scan_generations() const {
  std::filesystem::path dir = stem_.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = stem_.filename().string() + ".";
  std::size_t best = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string suffix = name.substr(prefix.size());
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;  // .manifest, .tmp, …
    }
    best = std::max(best, static_cast<std::size_t>(
                              std::strtoull(suffix.c_str(), nullptr, 10)));
  }
  return best;
}

std::size_t GenerationChain::latest_on_disk() const {
  return std::max(manifest_generation(), scan_generations());
}

std::size_t GenerationChain::commit(std::vector<std::byte> payload) {
  crash_point("chain:pre_commit");
  // Next generation = disk max + 1, scanning past the manifest: after a
  // crash between chain:post_data and chain:post_manifest the manifest is
  // stale, and trusting it would overwrite the newer good generation.
  const std::size_t generation = latest_on_disk() + 1;
  append_footer(payload);
  atomic_write_file(generation_path(generation), payload, io_);
  crash_point("chain:post_data");

  std::vector<std::byte> manifest;
  auto manifest_io = tensor::StateIo::writer(manifest);
  Manifest{.generation = generation}.persist(manifest_io);
  append_footer(manifest);
  atomic_write_file(manifest_path(), manifest, io_);
  crash_point("chain:post_manifest");

  // Prune best-effort: a failed unlink must not fail the commit.
  if (generation > keep_) {
    for (std::size_t old = generation - keep_; old >= 1; --old) {
      std::error_code ec;
      if (!std::filesystem::remove(generation_path(old), ec)) break;
    }
  }
  return generation;
}

std::optional<GenerationChain::Loaded> GenerationChain::load() const {
  const std::size_t from_manifest = manifest_generation();
  const std::size_t from_scan = scan_generations();
  const std::size_t newest = std::max(from_manifest, from_scan);
  if (newest == 0) return std::nullopt;

  Loaded out;
  out.manifest_recovered = from_manifest == 0 || from_scan > from_manifest;
  for (std::size_t gen = newest; gen >= 1; --gen) {
    const std::filesystem::path path = generation_path(gen);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      ++out.fallbacks;
      continue;
    }
    try {
      std::vector<std::byte> sealed = read_file_bytes(path);
      const std::size_t payload = verified_payload_size(sealed, path.string());
      sealed.resize(payload);
      out.payload = std::move(sealed);
      out.generation = gen;
      return out;
    } catch (const std::runtime_error&) {
      ++out.fallbacks;  // torn or bit-flipped generation: walk down
    }
  }
  return std::nullopt;
}

}  // namespace fedpkd::fl::durable
