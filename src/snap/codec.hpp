// Binary codec for simulation checkpoints (header-only).
//
// The format is deliberately boring: little-endian fixed-width integers,
// length-prefixed containers, no alignment, no varints. Determinism is the
// whole point — the same simulation state must always produce the same
// bytes, because restore-equivalence is verified by comparing encodings
// (see snap/snapshot.hpp and the drivers' round-trip probes).
//
// Header-only so that every layer (net, fwd, bgp, dv, ls, metrics) can
// serialize its own private state without linking against bgpsim_snap —
// the library proper (snapshot.cpp, cache.cpp) sits *above* those layers.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace bgpsim::snap {

/// Thrown on any malformed snapshot input: truncation, bad magic, version
/// or integrity-hash mismatch, trailing bytes. Never undefined behavior.
class FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// FNV-1a, byte-wise — the same constants the fuzzer's campaign digest
// uses, so one hash idiom serves the whole repo.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Incremental FNV-1a over 64-bit words: the identity-hash builder for
/// topology / configuration fingerprints (snapshot meta, cache keys).
class Hasher {
 public:
  Hasher& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= kFnvPrime;
    }
    return *this;
  }
  Hasher& mix_time(sim::SimTime t) {
    return mix(static_cast<std::uint64_t>(t.as_micros()));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

// The codec copies native words: every supported host is little-endian,
// so a value's in-memory bytes are its encoding.
static_assert(std::endian::native == std::endian::little,
              "snap codec writes native words as little-endian bytes");

/// Appends little-endian fixed-width values to a byte buffer. Each value
/// is one capacity check and one memcpy into a buffer grown ahead of the
/// write position; bytes() and take() trim it to what was written.
class Writer {
 public:
  void u8(std::uint8_t v) { put(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void f64(double v) { put(v); }
  void time(sim::SimTime t) { i64(t.as_micros()); }
  void str(std::string_view s) {
    u64(s.size());
    append(s.data(), s.size());
  }
  /// A time series: its u64 length, then each time as time() writes it,
  /// in one copy.
  void times(std::span<const sim::SimTime> ts) {
    static_assert(sizeof(sim::SimTime) == sizeof(std::int64_t) &&
                  std::is_trivially_copyable_v<sim::SimTime>);
    u64(ts.size());
    append(ts.data(), ts.size_bytes());
  }

  /// Write a u64 placeholder and return its offset, for a count known
  /// only after the items behind it are written (see patch_u64).
  [[nodiscard]] std::size_t u64_slot() {
    const std::size_t at = size_;
    u64(0);
    return at;
  }
  /// Overwrite the u64 at `at`, an offset u64_slot() returned.
  void patch_u64(std::size_t at, std::uint64_t v) {
    std::memcpy(buf_.data() + at, &v, sizeof v);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() & {
    buf_.resize(size_);
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && {
    buf_.resize(size_);
    return std::move(buf_);
  }

 private:
  template <typename T>
  void put(T v) {
    std::memcpy(claim(sizeof v), &v, sizeof v);
  }
  void append(const void* data, std::size_t n) {
    if (n != 0) std::memcpy(claim(n), data, n);
  }

  /// The next `n` bytes of the buffer, growing it when they do not fit.
  std::uint8_t* claim(std::size_t n) {
    if (buf_.size() - size_ < n) grow(n);
    std::uint8_t* at = buf_.data() + size_;
    size_ += n;
    return at;
  }
  void grow(std::size_t n) {
    buf_.resize(std::max({2 * buf_.size(), size_ + n, std::size_t{256}}));
  }

  std::vector<std::uint8_t> buf_;  // [0, size_) written, the rest spare
  std::size_t size_ = 0;
};

/// Bounds-checked reader over an encoded buffer. Every underrun throws
/// FormatError; finish() additionally rejects trailing bytes, so a decode
/// that consumes a different shape than the encode wrote always surfaces.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_{bytes} {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  bool b() { return u8() != 0; }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  double f64() { return get<double>(); }
  sim::SimTime time() { return sim::SimTime::micros(i64()); }
  std::string str() {
    const std::span<const std::uint8_t> chars = raw(u64());
    return std::string{reinterpret_cast<const char*>(chars.data()),
                       chars.size()};
  }
  /// The next `n` bytes as they are.
  std::span<const std::uint8_t> raw(std::uint64_t n) {
    need(n);
    const auto out = bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return out;
  }
  /// A series Writer::times wrote, replacing `out`'s contents.
  void times(std::vector<sim::SimTime>& out) {
    const std::uint64_t n = count(sizeof(sim::SimTime));
    out.resize(static_cast<std::size_t>(n));
    const std::size_t size = out.size() * sizeof(sim::SimTime);
    if (size != 0) std::memcpy(out.data(), bytes_.data() + pos_, size);
    pos_ += size;
  }

  /// Read an item count, and end in FormatError unless that many items of
  /// at least `min_item_bytes` (>= 1) bytes each fit in the bytes left, so
  /// a decoder may reserve for the count.
  std::uint64_t count(std::size_t min_item_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_item_bytes) {
      throw FormatError{"snapshot count " + std::to_string(n) + " of " +
                        std::to_string(min_item_bytes) +
                        "-byte items overruns the " +
                        std::to_string(remaining()) + " byte(s) left"};
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  /// Require that every byte was consumed.
  void finish() const {
    if (pos_ != bytes_.size()) {
      throw FormatError{"snapshot decode left " +
                        std::to_string(bytes_.size() - pos_) +
                        " trailing byte(s)"};
    }
  }

 private:
  void need(std::uint64_t n) const {
    if (n > bytes_.size() - pos_) {
      throw FormatError{"snapshot truncated: need " + std::to_string(n) +
                        " byte(s) at offset " + std::to_string(pos_) +
                        ", have " + std::to_string(bytes_.size() - pos_)};
    }
  }
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// A prefix value, rejected at or above `limit` — the owner's prefix
/// count where it has one, else net::kMaxPrefixes: per-prefix state is
/// indexed by the value, so a corrupt prefix must fail here rather than
/// size a plane.
[[nodiscard]] inline net::Prefix read_prefix(
    Reader& r, std::uint64_t limit = net::kMaxPrefixes) {
  const net::Prefix prefix = r.u32();
  if (prefix >= limit) {
    throw FormatError{"snapshot prefix " + std::to_string(prefix) +
                      " is out of range (limit " + std::to_string(limit) +
                      ")"};
  }
  return prefix;
}

/// RNG streams checkpoint as their raw engine words plus the retained
/// root seed (child() derives from it, so it is part of the state).
inline void write_rng(Writer& w, const sim::Rng& rng) {
  const sim::Rng::State st = rng.state();
  for (const std::uint64_t word : st.s) w.u64(word);
  w.u64(st.seed);
}

inline void read_rng(Reader& r, sim::Rng& rng) {
  sim::Rng::State st;
  for (std::uint64_t& word : st.s) word = r.u64();
  st.seed = r.u64();
  rng.set_state(st);
}

}  // namespace bgpsim::snap
