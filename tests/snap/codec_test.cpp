// Codec, snapshot container, and prelude-cache unit tests.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "snap/cache.hpp"
#include "snap/codec.hpp"
#include "snap/snapshot.hpp"

namespace bgpsim::snap {
namespace {

TEST(Codec, WriterReaderRoundTripAllTypes) {
  Writer w;
  w.u8(0xab);
  w.b(true);
  w.b(false);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.25);
  w.time(sim::SimTime::millis(1500));
  w.str("hello, checkpoint");

  const std::vector<std::uint8_t> bytes = std::move(w).take();
  Reader r{bytes};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.u32(), 0xdeadbeefU);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.time(), sim::SimTime::millis(1500));
  EXPECT_EQ(r.str(), "hello, checkpoint");
  EXPECT_EQ(r.remaining(), 0U);
  EXPECT_NO_THROW(r.finish());
}

TEST(Codec, WriterBytesArePinnedLittleEndian) {
  // The byte-wise encoding, spelled out: every fixed-width value is its
  // low bytes, least significant first, and a string is its u64 length
  // then its characters.
  const auto le = [](std::uint64_t v, int n) {
    std::vector<std::uint8_t> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffU));
    }
    return out;
  };
  std::vector<std::uint8_t> expected;
  const auto append = [&expected](const std::vector<std::uint8_t>& bytes) {
    expected.insert(expected.end(), bytes.begin(), bytes.end());
  };
  Writer w;
  w.u8(0xfe);
  append({0xfe});
  w.u32(0x89abcdefU);
  append(le(0x89abcdefU, 4));
  w.u64(0x0123456789abcdefULL);
  append(le(0x0123456789abcdefULL, 8));
  w.i64(-2);
  append(le(0xfffffffffffffffeULL, 8));
  w.f64(-0.5);
  append(le(0xbfe0000000000000ULL, 8));
  w.str("bgp");
  append(le(3, 8));
  append({'b', 'g', 'p'});
  w.str("");
  append(le(0, 8));
  EXPECT_EQ(w.bytes(), expected);
  EXPECT_EQ(fnv1a(w.bytes()), fnv1a(expected));
}

TEST(Snapshot, ContentHashIsComputedOnceAndTravelsWithCopies) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const Snapshot snap{SnapshotMeta{}, payload};
  EXPECT_EQ(snap.content_hash(), fnv1a(payload));
  EXPECT_EQ(snap.content_hash(), fnv1a(payload));
  Snapshot copy = snap;
  EXPECT_EQ(copy.content_hash(), fnv1a(payload));
  Snapshot moved = std::move(copy);
  EXPECT_EQ(moved.content_hash(), fnv1a(payload));
  copy = Snapshot{};
  EXPECT_EQ(copy.content_hash(), fnv1a({}));
  EXPECT_EQ(Snapshot{}.content_hash(), fnv1a({}));
}

TEST(Codec, TruncationThrowsFormatError) {
  Writer w;
  w.u32(7);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  Reader r{bytes};
  EXPECT_THROW(r.u64(), FormatError);  // only 4 bytes present
}

TEST(Codec, TrailingBytesRejectedByFinish) {
  Writer w;
  w.u32(7);
  w.u8(1);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  Reader r{bytes};
  (void)r.u32();
  EXPECT_THROW(r.finish(), FormatError);
}

TEST(Codec, RngStateRoundTripContinuesIdentically) {
  sim::Rng a{123};
  (void)a.next_u64();
  (void)a.child("stream").next_u64();

  Writer w;
  write_rng(w, a);
  sim::Rng b{999};  // different seed, fully overwritten by restore
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  Reader r{bytes};
  read_rng(r, b);

  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(a.child("again", 4).next_u64(), b.child("again", 4).next_u64());
}

TEST(Codec, HasherIsOrderSensitiveAndDeterministic) {
  const std::uint64_t ab = Hasher{}.mix(1).mix(2).value();
  const std::uint64_t ba = Hasher{}.mix(2).mix(1).value();
  EXPECT_NE(ab, ba);
  EXPECT_EQ(ab, Hasher{}.mix(1).mix(2).value());
}

SnapshotMeta sample_meta() {
  SnapshotMeta meta;
  meta.driver = DriverKind::kDv;
  meta.topology_hash = 111;
  meta.config_hash = 222;
  meta.seed = 333;
  meta.destination = 4;
  meta.originated = true;
  meta.quiescent = true;
  meta.sim_time = sim::SimTime::seconds(30);
  return meta;
}

std::vector<std::uint8_t> sample_payload() { return {1, 2, 3, 4, 5, 6, 7}; }

TEST(Snapshot, EncodeDecodeRoundTrip) {
  const Snapshot original{sample_meta(), sample_payload()};
  const Snapshot decoded = Snapshot::decode(original.encode());

  EXPECT_EQ(decoded.meta().driver, DriverKind::kDv);
  EXPECT_EQ(decoded.meta().topology_hash, 111U);
  EXPECT_EQ(decoded.meta().config_hash, 222U);
  EXPECT_EQ(decoded.meta().seed, 333U);
  EXPECT_EQ(decoded.meta().destination, 4U);
  EXPECT_TRUE(decoded.meta().originated);
  EXPECT_TRUE(decoded.meta().quiescent);
  EXPECT_EQ(decoded.meta().sim_time, sim::SimTime::seconds(30));
  EXPECT_EQ(decoded.payload(), sample_payload());
  EXPECT_EQ(decoded.content_hash(), original.content_hash());
}

TEST(Snapshot, BadMagicRejected) {
  std::vector<std::uint8_t> blob = Snapshot{sample_meta(), sample_payload()}.encode();
  blob[0] ^= 0xff;
  try {
    (void)Snapshot::decode(blob);
    FAIL() << "decode accepted a corrupt magic";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string{e.what()}.find("magic"), std::string::npos);
  }
}

TEST(Snapshot, FutureFormatVersionRejectedWithClearError) {
  std::vector<std::uint8_t> blob = Snapshot{sample_meta(), sample_payload()}.encode();
  // Bump the version field in place; the reader must identify the version
  // mismatch (not report garbage or an integrity failure) even though the
  // trailer no longer matches either.
  blob[kVersionOffset] = static_cast<std::uint8_t>(kFormatVersion + 1);
  try {
    (void)Snapshot::decode(blob);
    FAIL() << "decode accepted a future format version";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported snapshot format version"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(kFormatVersion + 1)), std::string::npos)
        << what;
  }
}

TEST(Snapshot, PriorFormatVersionRejected) {
  // A well-formed v7 blob (its trailer recomputed over the older version
  // field) names paths by hop list, not by arena ref: no reader for it
  // remains, and decode says which version it met.
  static_assert(kFormatVersion == 8);
  std::vector<std::uint8_t> blob =
      Snapshot{sample_meta(), sample_payload()}.encode();
  blob[kVersionOffset] = 7;
  blob.resize(blob.size() - 8);
  Writer trailer;
  trailer.u64(fnv1a(blob));
  blob.insert(blob.end(), trailer.bytes().begin(), trailer.bytes().end());
  try {
    (void)Snapshot::decode(blob);
    FAIL() << "decode accepted a v7 blob";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported snapshot format version 7"),
              std::string::npos)
        << what;
  }
}

TEST(Snapshot, CorruptedPayloadFailsIntegrityCheck) {
  const Snapshot original{sample_meta(), sample_payload()};
  std::vector<std::uint8_t> blob = original.encode();
  blob[blob.size() - 12] ^= 0x01;  // inside the payload, before the trailer
  try {
    (void)Snapshot::decode(blob);
    FAIL() << "decode accepted a corrupt payload";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string{e.what()}.find("integrity"), std::string::npos);
  }
}

TEST(Snapshot, TruncatedBlobRejected) {
  std::vector<std::uint8_t> blob = Snapshot{sample_meta(), sample_payload()}.encode();
  blob.resize(blob.size() - 3);
  EXPECT_THROW((void)Snapshot::decode(blob), FormatError);
  EXPECT_THROW((void)Snapshot::decode(std::vector<std::uint8_t>(4)),
               FormatError);
}

TEST(Snapshot, FileRoundTripAndMissingFile) {
  const std::string path =
      testing::TempDir() + "/bgpsim_codec_test_state.snap";
  const Snapshot original{sample_meta(), sample_payload()};
  original.save_file(path);
  const Snapshot loaded = Snapshot::load_file(path);
  EXPECT_EQ(loaded.content_hash(), original.content_hash());
  EXPECT_EQ(loaded.meta().seed, original.meta().seed);
  std::remove(path.c_str());

  EXPECT_THROW((void)Snapshot::load_file(path), std::runtime_error);
}

class PreludeCacheTest : public testing::Test {
 protected:
  void SetUp() override {
    auto& cache = PreludeCache::instance();
    cache.set_capacity(PreludeCache::kDefaultCapacity);
    cache.clear();
    cache.reset_stats();
  }
  void TearDown() override { SetUp(); }

  static std::shared_ptr<const Snapshot> snap(std::uint64_t seed) {
    SnapshotMeta meta = sample_meta();
    meta.seed = seed;
    return std::make_shared<const Snapshot>(meta, sample_payload());
  }
};

TEST_F(PreludeCacheTest, FindInsertAndStats) {
  auto& cache = PreludeCache::instance();
  EXPECT_EQ(cache.find(1), nullptr);
  cache.insert(1, snap(1));
  const auto hit = cache.find(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->meta().seed, 1U);
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.misses(), 1U);
}

TEST_F(PreludeCacheTest, FirstWriterWins) {
  auto& cache = PreludeCache::instance();
  cache.insert(1, snap(10));
  cache.insert(1, snap(20));  // concurrent duplicate: dropped
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_EQ(cache.find(1)->meta().seed, 10U);
}

TEST_F(PreludeCacheTest, CapacityZeroDisablesEverything) {
  auto& cache = PreludeCache::instance();
  cache.set_capacity(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(1, snap(1));
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.find(1), nullptr);
}

TEST_F(PreludeCacheTest, EvictsOldestWhenFull) {
  auto& cache = PreludeCache::instance();
  cache.set_capacity(2);
  cache.insert(1, snap(1));
  cache.insert(2, snap(2));
  cache.insert(3, snap(3));  // evicts key 1
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_NE(cache.find(2), nullptr);
  EXPECT_NE(cache.find(3), nullptr);
}

TEST_F(PreludeCacheTest, ShrinkingCapacityEvicts) {
  auto& cache = PreludeCache::instance();
  cache.insert(1, snap(1));
  cache.insert(2, snap(2));
  cache.insert(3, snap(3));
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_NE(cache.find(3), nullptr);  // newest survives
}

TEST(Codec, BackPatchedCountsAndBulkTimeSeries) {
  // A u64 slot patched after the items behind it reads as if the count had
  // been written first; a time series is its u64 length and each time as
  // time() writes it.
  Writer w;
  const std::size_t at = w.u64_slot();
  w.u32(7);
  w.u32(9);
  w.patch_u64(at, 2);
  const std::vector<sim::SimTime> series{sim::SimTime::micros(-3),
                                         sim::SimTime::seconds(2)};
  w.times(series);
  w.times({});

  Writer expected;
  expected.u64(2);
  expected.u32(7);
  expected.u32(9);
  expected.u64(series.size());
  for (const sim::SimTime t : series) expected.time(t);
  expected.u64(0);
  EXPECT_EQ(w.bytes(), expected.bytes());

  Reader r{w.bytes()};
  EXPECT_EQ(r.u64(), 2U);
  r.u32();
  r.u32();
  std::vector<sim::SimTime> back{sim::SimTime::seconds(9)};
  r.times(back);
  EXPECT_EQ(back, series);
  r.times(back);
  EXPECT_TRUE(back.empty());
  r.finish();
}

TEST(Codec, WriterKeepsWritingAfterBytesIsRead) {
  Writer w;
  for (std::uint32_t i = 0; i < 100; ++i) w.u32(i);
  EXPECT_EQ(w.bytes().size(), 400U);
  w.u64(1);
  EXPECT_EQ(w.bytes().size(), 408U);
  const std::vector<std::uint8_t> taken = std::move(w).take();
  Reader r{taken};
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(r.u32(), i);
  EXPECT_EQ(r.u64(), 1U);
  r.finish();
}

TEST(Codec, CountIsBoundedByTheBytesLeft) {
  Writer w;
  w.u64(3);
  w.u32(1);
  w.u32(2);
  w.u32(3);
  w.u64(4);  // four 4-byte items claimed, none follow
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  Reader r{bytes};
  EXPECT_EQ(r.count(4), 3U);  // exactly fits
  r.u32();
  r.u32();
  r.u32();
  EXPECT_THROW((void)r.count(1), FormatError);
  Reader huge{bytes};
  EXPECT_THROW((void)huge.count(std::size_t{1} << 40), FormatError);
}

}  // namespace
}  // namespace bgpsim::snap
