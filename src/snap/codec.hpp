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

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
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

/// Appends little-endian fixed-width values to a byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { put<4>(v); }
  void u64(std::uint64_t v) { put<8>(v); }
  void i64(std::int64_t v) { put<8>(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void time(sim::SimTime t) { i64(t.as_micros()); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const& {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  /// The low N bytes of v, least significant first, appended byte by
  /// byte: no zero-filling resize, and none of the vector range-insert
  /// paths GCC 12's Release build misreads as -Wstringop-overflow.
  template <std::size_t N>
  void put(std::uint64_t v) {
    for (std::size_t i = 0; i < N; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over an encoded buffer. Every underrun throws
/// FormatError; finish() additionally rejects trailing bytes, so a decode
/// that consumes a different shape than the encode wrote always surfaces.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_{bytes} {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  bool b() { return u8() != 0; }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  std::uint64_t u64() { return get(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(get(8)); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  sim::SimTime time() { return sim::SimTime::micros(i64()); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s{reinterpret_cast<const char*>(bytes_.data() + pos_),
                  static_cast<std::size_t>(n)};
    pos_ += static_cast<std::size_t>(n);
    return s;
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
  std::uint64_t get(int n) {
    need(static_cast<std::uint64_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
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
