// Fuzz-ish robustness tests of the provenance store image and the layer
// spill files: bit flips and truncations must come back as Status errors
// (never crashes or silent misreads), and the errors must name the file.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "provenance/store.h"
#include "storage/layer.h"
#include "storage/page.h"

namespace ariadne {
namespace {

Layer MakeLayer(Superstep step, int rel, int n_vertices) {
  Layer layer;
  layer.step = step;
  for (int v = 0; v < n_vertices; ++v) {
    layer.Add(rel, v,
              {{Value(int64_t{v}), Value(static_cast<int64_t>(step)),
                Value(0.5 * v)},
               {Value(int64_t{v}), Value("payload-" + std::to_string(v)),
                Value()}});
  }
  return layer;
}

ProvenanceStore MakeStore() {
  ProvenanceStore store;
  const int rel = store.AddRelation("value", 3);
  store.static_layer().Add(store.AddRelation("prov-edges", 2), 0,
                           {{Value(int64_t{0}), Value(int64_t{1})}});
  for (Superstep s = 0; s < 4; ++s) {
    EXPECT_TRUE(store.AppendLayer(MakeLayer(s, rel, 25)).ok());
  }
  return store;
}

/// Bytes before the checksummed body of an APV2 image:
/// [u32 magic][u32 flags][u64 fnv1a(body)].
constexpr size_t kHeaderBytes = 16;

/// An unflagged APV2 image of `body` whose header checksum matches it.
std::string Reseal(const std::string& body) {
  BinaryWriter header;
  header.WriteU32(0x41505632);  // "APV2"
  header.WriteU32(0);
  header.WriteU64(storage::Fnv1a(body));
  return header.MoveData() + body;
}

class StoreCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/corruption_test_store.bin";
    ProvenanceStore store = MakeStore();
    ASSERT_TRUE(store.SaveToFile(path_).ok());
    auto data = ReadFile(path_);
    ASSERT_TRUE(data.ok());
    image_ = std::move(data).value();
    ASSERT_GT(image_.size(), 64u);
  }

  /// Writes `bytes` to the test path and tries to load it.
  Result<ProvenanceStore> LoadBytes(const std::string& bytes) {
    EXPECT_TRUE(WriteFile(path_, bytes).ok());
    return ProvenanceStore::LoadFromFile(path_);
  }

  std::string path_;
  std::string image_;
};

TEST_F(StoreCorruptionTest, PristineImageLoads) {
  auto loaded = LoadBytes(image_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_layers(), 4);
}

TEST_F(StoreCorruptionTest, EveryBitFlipIsRejected) {
  // Walk the image with a stride, flipping one bit at a time. The file
  // checksum (plus magic/flags validation in the header) must catch every
  // single one — and none may crash or hang the loader.
  const size_t stride = std::max<size_t>(1, image_.size() / 97);
  int flips = 0;
  for (size_t pos = 0; pos < image_.size(); pos += stride) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupt = image_;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ bit);
      auto loaded = LoadBytes(corrupt);
      EXPECT_FALSE(loaded.ok())
          << "bit flip at byte " << pos << " was not detected";
      ++flips;
    }
  }
  EXPECT_GE(flips, 100);
}

TEST_F(StoreCorruptionTest, EveryTruncationIsRejected) {
  const size_t stride = std::max<size_t>(1, image_.size() / 61);
  for (size_t cut = 0; cut < image_.size(); cut += stride) {
    auto loaded = LoadBytes(image_.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "truncation to " << cut
                              << " bytes was not detected";
    EXPECT_NE(loaded.status().message().find(path_), std::string::npos)
        << "error does not name the file: " << loaded.status().ToString();
  }
}

TEST_F(StoreCorruptionTest, TrailingGarbageIsRejected) {
  // Appending bytes breaks the checksum; with a fixed-up checksum the
  // structural trailing-bytes check must still fire (defense in depth).
  EXPECT_FALSE(LoadBytes(image_ + std::string(8, '\x7f')).ok());
  const std::string body = image_.substr(kHeaderBytes);
  auto resealed = LoadBytes(Reseal(body + std::string(8, '\x7f')));
  ASSERT_FALSE(resealed.ok());
  EXPECT_NE(resealed.status().message().find("trailing"), std::string::npos)
      << resealed.status().ToString();
}

TEST_F(StoreCorruptionTest, ResealedTruncationsAreRejected) {
  // Truncate the body and recompute the checksum: the image passes the
  // header check, so the per-count bounds validation of the loader and of
  // the static layer's row-major decoder must fail it structurally.
  const std::string body = image_.substr(kHeaderBytes);
  {
    auto ok = LoadBytes(Reseal(body));
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->num_layers(), 4);
  }
  const size_t stride = std::max<size_t>(1, body.size() / 53);
  for (size_t cut = 0; cut < body.size(); cut += stride) {
    auto loaded = LoadBytes(Reseal(body.substr(0, cut)));
    EXPECT_FALSE(loaded.ok()) << "resealed truncation to " << cut
                              << " body bytes was not detected";
  }
}

TEST_F(StoreCorruptionTest, ResealedCountCorruptionIsBounded) {
  // Blow up the static layer's slice count, then the layer count, behind
  // a valid checksum: the loader must reject each via its bounds guard
  // instead of attempting a huge reserve.
  for (bool corrupt_layer_count : {false, true}) {
    BinaryWriter body;
    body.WriteU64(1);
    body.WriteString("value");
    body.WriteU32(3);
    body.WriteI64(0);  // static layer step
    body.WriteU64(corrupt_layer_count ? 0 : uint64_t{1} << 60);  // slices
    body.WriteU64(corrupt_layer_count ? uint64_t{1} << 60 : 0);  // layers
    auto loaded = LoadBytes(Reseal(body.data()));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("exceeds"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(StoreCorruptionTest, Apv1MagicIsRejected) {
  // The row-major APV1 image format is no longer read.
  std::string legacy = image_;
  const uint32_t apv1 = 0x41505631;  // "APV1"
  std::memcpy(legacy.data(), &apv1, sizeof(apv1));
  auto loaded = LoadBytes(legacy);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("bad provenance store magic"),
            std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace ariadne
