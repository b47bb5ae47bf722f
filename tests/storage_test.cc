#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "storage/flusher.h"
#include "storage/layer.h"
#include "storage/layer_store.h"
#include "storage/page.h"
#include "storage/page_cache.h"

namespace ariadne {
namespace {

using storage::BackgroundFlusher;
using storage::ByteReader;
using storage::LayerStore;
using storage::LayerStoreOptions;
using storage::Page;
using storage::PageCache;
using storage::PageKey;

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.emplace_back(v);
  return t;
}

/// A layer with two relations and `n` vertices each, in canonical
/// (relation, vertex) order; relation 1 carries doubles and strings to
/// exercise every column encoding.
Layer MixedLayer(Superstep step, int n) {
  Layer layer;
  layer.step = step;
  for (int v = 0; v < n; ++v) {
    layer.Add(0, v, {T({v, step, v + 1}), T({v, step, v + 2})});
  }
  for (int v = 0; v < n; ++v) {
    std::string tag = "s";
    tag += std::to_string(v);
    layer.Add(1, v,
              {{Value(int64_t{v}), Value(0.25 * v), Value(std::move(tag))},
               {Value(int64_t{v}), Value(), Value(std::vector<double>{1.0, 2.0})}});
  }
  return layer;
}

std::string Dump(const Layer& layer) {
  BinaryWriter w;
  SerializeLayer(layer, w);
  return w.MoveData();
}

std::string Dump(const storage::CaptureBatch& batch) {
  return Dump(batch.ToLayer());
}

std::shared_ptr<const storage::CaptureBatch> BatchOf(const Layer& layer) {
  return std::make_shared<const storage::CaptureBatch>(
      storage::CaptureBatch::FromLayer(layer));
}

TEST(VarintTest, RoundTripsEdgeValues) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{1} << 35, ~uint64_t{0}}) {
    std::string buf;
    storage::AppendVarint(&buf, v);
    ByteReader reader(buf);
    auto got = reader.ReadVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(reader.AtEnd());
  }
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64},
                    int64_t{1} << 40, -(int64_t{1} << 40),
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    std::string buf;
    storage::AppendZigzag(&buf, v);
    ByteReader reader(buf);
    auto got = reader.ReadZigzag();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(VarintTest, TruncatedVarintFails) {
  std::string buf;
  storage::AppendVarint(&buf, uint64_t{1} << 40);
  buf.resize(buf.size() - 1);
  ByteReader reader(buf);
  EXPECT_FALSE(reader.ReadVarint().ok());
}

TEST(CaptureBatchTest, ByteCountsMatchTheLayer) {
  // MixedLayer holds every Value kind: null, int, double, string and
  // double vector, plus the empty layer and an empty string payload.
  for (int n : {0, 1, 17}) {
    const Layer layer = MixedLayer(2, n);
    const auto batch = storage::CaptureBatch::FromLayer(layer);
    EXPECT_EQ(batch.serialized_bytes(), Dump(layer).size()) << n;
    EXPECT_EQ(batch.byte_size(), layer.byte_size) << n;
    EXPECT_EQ(Dump(batch.ToLayer()), Dump(layer)) << n;
  }
  Layer layer;
  layer.Add(3, 7, {{Value(std::string()), Value(std::vector<double>{})}});
  layer.Add(3, 8, {{Value(int64_t{8})}, {Value(int64_t{8}), Value(1.5)}});
  const auto batch = storage::CaptureBatch::FromLayer(layer);
  EXPECT_EQ(batch.serialized_bytes(), Dump(layer).size());
  EXPECT_EQ(batch.byte_size(), layer.byte_size);
  EXPECT_EQ(Dump(batch.ToLayer()), Dump(layer));
}

TEST(CaptureBatchTest, DedupSlicesKeepOneRowPerValueTuple) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  storage::CaptureBatch batch;
  batch.BeginSlice(0, 5, storage::CaptureBatch::Rows::kDedup);
  const Tuple rows[] = {
      {Value(int64_t{5}), Value(0.0), Value("a")},
      {Value(int64_t{5}), Value(-0.0), Value("a")},  // equal: 0.0 == -0.0
      {Value(int64_t{5}), Value(nan), Value("a")},
      {Value(int64_t{5}), Value(nan), Value("a")},  // NaN equals nothing
      {Value(int64_t{5}), Value(1.0), Value("a")},
      {Value(int64_t{5}), Value(int64_t{1}), Value("a")},  // 1 != 1.0
      {Value(int64_t{5}), Value(1.0), Value("b")},
      {Value(int64_t{5}), Value(1.0), Value("b")},
  };
  const bool kept[] = {true, false, true, true, true, true, true, false};
  for (size_t i = 0; i < std::size(rows); ++i) {
    for (const Value& v : rows[i]) batch.AddValue(v);
    EXPECT_EQ(batch.EndRow(), kept[i]) << i;
  }
  // Enough distinct rows to grow the dedup table, each sent twice.
  for (int64_t i = 0; i < 100; ++i) {
    for (int copy = 0; copy < 2; ++copy) {
      batch.AddInt(5);
      batch.AddDouble(static_cast<double>(i));
      batch.AddString(std::string(static_cast<size_t>(i % 7), 'x'));
      EXPECT_EQ(batch.EndRow(), copy == 0) << i;
    }
  }
  ASSERT_TRUE(batch.EndSlice());
  const Layer layer = batch.ToLayer();
  ASSERT_EQ(layer.slices.size(), 1u);
  EXPECT_EQ(layer.slices[0].tuples.size(), 106u);
  EXPECT_EQ(layer.slices[0].tuples[5][2], Value("b"));  // pool rolled back
  EXPECT_EQ(layer.slices[0].tuples[105][2], Value(std::string(99 % 7, 'x')));
  EXPECT_EQ(batch.num_tuples(), 106);
  EXPECT_EQ(batch.byte_size(), layer.byte_size);
}

TEST(CaptureBatchTest, SetsSaysWhetherEverySliceIsKnownToBeASet) {
  using Rows = storage::CaptureBatch::Rows;
  // Slice of `rows` rows of `rel` at vertex 0; `repeat` makes the last
  // row equal the first.
  auto add = [](storage::CaptureBatch& batch, int rel, Rows mode, int rows,
                bool repeat) {
    batch.BeginSlice(rel, 0, mode);
    for (int r = 0; r < rows; ++r) {
      batch.AddInt(repeat && r + 1 == rows ? 0 : r);
      batch.EndRow();
    }
    batch.EndSlice();
  };
  storage::CaptureBatch sets;
  EXPECT_TRUE(sets.sets());
  add(sets, 0, Rows::kAny, 1, false);
  add(sets, 1, Rows::kDistinct, 3, false);
  add(sets, 2, Rows::kDedup, 3, true);
  EXPECT_TRUE(sets.sets());
  EXPECT_EQ(sets.num_tuples(), 6);

  storage::CaptureBatch any;
  add(any, 3, Rows::kAny, 3, true);
  EXPECT_FALSE(any.sets());
  const storage::CaptureBatch distinct = any.Distinct();
  EXPECT_TRUE(distinct.sets());
  EXPECT_EQ(distinct.num_tuples(), 2);

  const storage::CaptureBatch parts[] = {sets, any};
  EXPECT_FALSE(storage::CaptureBatch::Concat(0, parts).sets());
  EXPECT_TRUE(
      storage::CaptureBatch::Concat(0, std::span(parts).first(1)).sets());
  any.Clear();
  EXPECT_TRUE(any.sets());

  // Decoded slices of more than one row are not known to be sets.
  storage::CaptureBatch decoded;
  for (const storage::Page& page : storage::EncodeBatch(sets, 1 << 16)) {
    ASSERT_TRUE(storage::DecodePage(page, &decoded).ok());
  }
  EXPECT_FALSE(decoded.sets());
  EXPECT_EQ(decoded.num_tuples(), 6);

  // The store keeps every slice as a set.
  storage::LayerStore store;
  storage::CaptureBatch repeating;
  add(repeating, 0, Rows::kAny, 3, true);
  ASSERT_TRUE(
      store.Append(std::make_shared<const storage::CaptureBatch>(repeating))
          .ok());
  auto read = store.Read(0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE((*read)->sets());
  EXPECT_EQ((*read)->num_tuples(), 2);
  EXPECT_EQ(store.TotalTuples(), 2);
}

TEST(CaptureBatchTest, ConcatGroupsRelationsInPartOrder) {
  // Two partitions, each written vertex by vertex: every vertex has rows
  // of relations 2 and 0, and the first partition also of relation 1.
  storage::CaptureBatch parts[2];
  Layer canonical;
  canonical.step = 4;
  for (int p = 0; p < 2; ++p) {
    for (int64_t v = 10 * p; v < 10 * p + 3; ++v) {
      for (int rel : {2, 0, 1}) {
        if (rel == 1 && p == 1) continue;
        parts[p].BeginSlice(rel, v);
        parts[p].AddInt(v);
        parts[p].AddString("r" + std::to_string(rel));
        parts[p].AddDoubleVector(std::vector<double>{0.5 * rel});
        parts[p].EndRow();
        parts[p].EndSlice();
      }
    }
  }
  for (int rel : {0, 1, 2}) {
    for (int p = 0; p < 2; ++p) {
      for (int64_t v = 10 * p; v < 10 * p + 3; ++v) {
        if (rel == 1 && p == 1) continue;
        canonical.Add(rel, v,
                      {{Value(v), Value("r" + std::to_string(rel)),
                        Value(std::vector<double>{0.5 * rel})}});
      }
    }
  }
  const auto sealed = storage::CaptureBatch::Concat(4, parts);
  EXPECT_EQ(sealed.step, 4);
  EXPECT_EQ(Dump(sealed.ToLayer()), Dump(canonical));
  EXPECT_EQ(sealed.serialized_bytes(), Dump(canonical).size());
  const auto a = storage::EncodeBatch(sealed, 64);
  const auto b = storage::EncodeLayer(canonical, 64);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].payload, b[i].payload) << i;
    EXPECT_EQ(a[i].header.raw_bytes, b[i].header.raw_bytes) << i;
  }

  const int only[] = {2};
  const auto filtered = storage::CaptureBatch::Concat(4, parts, only);
  Layer only2;
  only2.step = 4;
  for (const LayerSlice& slice : canonical.slices) {
    if (slice.rel == 2) only2.Add(slice.rel, slice.vertex, slice.tuples);
  }
  EXPECT_EQ(Dump(filtered.ToLayer()), Dump(only2));
  EXPECT_EQ(filtered.num_tuples(), 6);
}

TEST(PageCodecTest, LayerRoundTripsThroughPages) {
  const Layer layer = MixedLayer(3, 50);
  const auto pages = storage::EncodeLayer(layer, 512);
  ASSERT_GT(pages.size(), 2u);  // small target forces multiple pages
  // Pages never mix relations and cover disjoint ascending vertex ranges.
  for (const Page& page : pages) {
    EXPECT_LE(page.header.first_vertex, page.header.last_vertex);
  }
  storage::CaptureBatch decoded;
  decoded.step = layer.step;
  for (const Page& page : pages) {
    ASSERT_TRUE(storage::DecodePage(page, &decoded).ok());
  }
  EXPECT_EQ(Dump(decoded), Dump(layer));
  EXPECT_EQ(decoded.byte_size(), layer.byte_size);
}

TEST(PageCodecTest, EncodingIsDeterministicAndCompact) {
  const Layer layer = MixedLayer(2, 200);
  const auto a = storage::EncodeLayer(layer, storage::kDefaultPageSize);
  const auto b = storage::EncodeLayer(layer, storage::kDefaultPageSize);
  ASSERT_EQ(a.size(), b.size());
  size_t compressed = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].payload, b[i].payload);
    compressed += storage::kPageWireHeaderBytes + a[i].payload.size();
  }
  // The columnar delta encoding must beat the row-major baseline by a
  // wide margin on this int-heavy layer.
  EXPECT_LT(compressed, Dump(layer).size() * 6 / 10);
}

/// One fixed layer that hits every column tag and both slice formats.
/// `decoded` builds the layer the pages decode to: a constant column
/// stores its first value once, so -0.0 next to 0.0 comes back as 0.0.
Layer CodecLayer(bool decoded) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double neg_zero = decoded ? 0.0 : -0.0;
  Layer layer;
  layer.step = 7;
  // rel 0: kColConst vertex ids, kColIntDelta with negative deltas,
  // kColDouble with NaN.
  for (int v = 0; v < 6; ++v) {
    layer.Add(0, v,
              {{Value(int64_t{v}), Value(int64_t{10 + 3 * v}), Value(0.5 * v)},
               {Value(int64_t{v}), Value(int64_t{7 - 40 * v}),
                Value(v == 2 ? nan : 1.5)},
               {Value(int64_t{v}), Value(int64_t{-5}), Value(2.0 * v + 1)}});
  }
  // rel 1: 0.0 and -0.0 are equal Values (kColConst double), Value(1)
  // next to Value(1.0) is kColMixed, strings and double vectors are
  // kColMixed, an equal string and a null column are kColConst.
  layer.Add(1, 3,
            {{Value(int64_t{3}), Value(0.0), Value(int64_t{1}), Value(),
              Value("same")},
             {Value(int64_t{3}), Value(neg_zero), Value(1.0), Value(),
              Value("same")}});
  layer.Add(1, 4,
            {{Value(int64_t{4}), Value("a"), Value(std::vector<double>{1.0}),
              Value(nan), Value(std::string())},
             {Value(int64_t{4}), Value("bb"),
              Value(std::vector<double>{2.0, nan, -0.0}), Value(nan),
              Value(std::vector<double>{})}});
  // rel 2: a mixed-arity slice and an arity-0 slice (kSliceRowMajor).
  layer.Add(2, 1,
            {{Value(int64_t{1})},
             {Value(int64_t{1}), Value(2.5)},
             {Value(int64_t{1}), Value("x"), Value(std::vector<double>{3.0})}});
  layer.Add(2, 2, {Tuple{}});
  // rel 3: a lone NaN is not equal to itself (kColDouble, not kColConst);
  // a single-row slice is all kColConst otherwise.
  layer.Add(3, 9, {{Value(int64_t{9}), Value(nan)}});
  layer.Add(3, 1000, {{Value(int64_t{1000}), Value(int64_t{-1})}});
  return layer;
}

TEST(PageCodecTest, CodecBytesArePinned) {
  // FNV-1a of each serialized page of CodecLayer at a 96-byte page
  // target, recorded once; any change to the page bytes fails here.
  const uint64_t kPageDigests[] = {
      0x73694122d9fc8bb3ull, 0x0c4ea5eb1b67ad46ull, 0xfd3c76f355a9e95bull,
      0x996bb93fc0906cd1ull, 0xf5a9742969026479ull};
  const Layer layer = CodecLayer(false);
  const auto pages = storage::EncodeLayer(layer, 96);
  std::string all;
  for (size_t i = 0; i < pages.size(); ++i) {
    std::string wire;
    storage::SerializePage(pages[i], &wire);
    all += wire;
    if (i < std::size(kPageDigests)) {
      EXPECT_EQ(storage::Fnv1a(wire), kPageDigests[i]) << "page " << i;
    }
  }
  EXPECT_EQ(pages.size(), std::size(kPageDigests));

  storage::CaptureBatch decoded;
  decoded.step = layer.step;
  size_t offset = 0;
  while (offset < all.size()) {
    auto page = storage::ParsePage(all, &offset);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_TRUE(storage::DecodePage(*page, &decoded).ok());
  }
  EXPECT_EQ(Dump(decoded), Dump(CodecLayer(true)));
  EXPECT_EQ(decoded.byte_size(), layer.byte_size);
}

/// A random batch of every value kind (null, int, double with -0.0 and
/// NaN, string, double vector): columnar slices whose columns are
/// constant, all ints, all doubles, 0.0 next to -0.0 or mixed, and
/// row-major slices of mixed arity.
storage::CaptureBatch RandomBatch(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {0.0, -0.0, nan, 1.5, -2.25,
                            std::numeric_limits<double>::infinity(), 1e300};
  const int64_t ints[] = {0, -1, 7, std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(), 1 << 20};
  auto random_double = [&] {
    return pick(3) == 0 ? static_cast<double>(rng() % 1000) / 8.0
                        : doubles[pick(std::size(doubles))];
  };
  auto random_value = [&](int kind) -> Value {
    switch (kind) {
      case 0:
        return Value();
      case 1:
        return Value(pick(2) == 0 ? static_cast<int64_t>(rng())
                                  : ints[pick(std::size(ints))]);
      case 2:
        return Value(random_double());
      case 3:
        return Value(std::string(pick(6), static_cast<char>('a' + pick(3))));
      default: {
        std::vector<double> v(pick(4));
        for (double& d : v) d = random_double();
        return Value(std::move(v));
      }
    }
  };
  storage::CaptureBatch batch;
  batch.step = static_cast<Superstep>(pick(50));
  VertexId vertex = 0;
  for (int rel = 0; rel < 3; ++rel) {
    const int n_slices = 1 + static_cast<int>(pick(6));
    for (int s = 0; s < n_slices; ++s) {
      vertex += static_cast<VertexId>(pick(3));
      batch.BeginSlice(rel, vertex);
      const size_t rows = 1 + pick(9);
      if (pick(3) == 0) {  // row-major: per-row arities
        for (size_t r = 0; r < rows; ++r) {
          const size_t arity = pick(4);
          for (size_t c = 0; c < arity; ++c) {
            batch.AddValue(random_value(static_cast<int>(pick(5))));
          }
          batch.EndRow();
        }
        batch.AddInt(vertex);  // one row of another arity
        batch.AddInt(1);
        batch.AddInt(2);
        batch.AddInt(3);
        batch.EndRow();
      } else {
        const size_t arity = 1 + pick(5);
        std::vector<std::vector<Value>> columns(arity);
        for (auto& col : columns) {
          const size_t mode = pick(5);
          const Value constant = random_value(static_cast<int>(pick(5)));
          for (size_t r = 0; r < rows; ++r) {
            switch (mode) {
              case 0:
                col.push_back(constant);
                break;
              case 1:
                col.push_back(random_value(1));
                break;
              case 2:
                col.push_back(random_value(2));
                break;
              case 3:
                col.push_back(Value(pick(2) == 0 ? 0.0 : -0.0));
                break;
              default:
                col.push_back(random_value(static_cast<int>(pick(5))));
            }
          }
        }
        for (size_t r = 0; r < rows; ++r) {
          for (const auto& col : columns) batch.AddValue(col[r]);
          batch.EndRow();
        }
      }
      batch.EndSlice();
    }
  }
  return batch;
}

/// Whether two cells hold the same value bit for bit.
bool SameCell(const storage::CaptureBatch& a, const storage::CaptureBatch::Cell& x,
              const storage::CaptureBatch& b,
              const storage::CaptureBatch::Cell& y) {
  if (x.tag != y.tag) return false;
  switch (x.tag) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kInt:
      return x.i == y.i;
    case Value::Kind::kDouble:
      return std::memcmp(&x.d, &y.d, sizeof(double)) == 0;
    case Value::Kind::kString:
      return a.AsString(x) == b.AsString(y);
    case Value::Kind::kDoubleVector: {
      const auto u = a.AsDoubleVector(x);
      const auto v = b.AsDoubleVector(y);
      return u.size() == v.size() &&
             (u.empty() ||
              std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) == 0);
    }
  }
  return false;
}

class BatchCodecTest : public testing::TestWithParam<uint64_t> {};

TEST_P(BatchCodecTest, RandomBatchesSurviveEncodeAndDecodeCellForCell) {
  const storage::CaptureBatch source = RandomBatch(GetParam());
  for (size_t page_size : {size_t{64}, storage::kDefaultPageSize}) {
    storage::CaptureBatch decoded;
    decoded.step = source.step;
    for (const Page& page : storage::EncodeBatch(source, page_size)) {
      std::string wire;
      storage::SerializePage(page, &wire);
      size_t offset = 0;
      auto parsed = storage::ParsePage(wire, &offset);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ASSERT_TRUE(storage::DecodePage(*parsed, &decoded).ok());
    }
    ASSERT_EQ(decoded.slices().size(), source.slices().size());
    EXPECT_EQ(decoded.byte_size(), source.byte_size());
    EXPECT_EQ(decoded.serialized_bytes(), source.serialized_bytes());
    EXPECT_EQ(decoded.num_tuples(), source.num_tuples());
    // The decoded layer: a constant column (every cell equal to the
    // first as Values, so 0.0 next to -0.0 too) stores its first value
    // once, and every cell of it decodes to that value.
    Layer expected = source.ToLayer();
    for (size_t i = 0; i < source.slices().size(); ++i) {
      const auto& s = source.slices()[i];
      const auto& d = decoded.slices()[i];
      ASSERT_EQ(d.rel, s.rel);
      ASSERT_EQ(d.vertex, s.vertex);
      ASSERT_EQ(d.rows, s.rows);
      ASSERT_EQ(d.arity, s.arity);
      if (s.arity == storage::CaptureBatch::kRowMajor) {
        ASSERT_TRUE(std::ranges::equal(decoded.row_arities(d),
                                       source.row_arities(s)));
        const auto want = source.cells(s);
        const auto got = decoded.cells(d);
        ASSERT_EQ(got.size(), want.size());
        for (size_t c = 0; c < want.size(); ++c) {
          EXPECT_TRUE(SameCell(source, want[c], decoded, got[c]))
              << "slice " << i << " cell " << c;
        }
        continue;
      }
      for (uint32_t col = 0; col < s.arity; ++col) {
        const auto want = source.column(s, col);
        const auto got = decoded.column(d, col);
        const bool constant = std::all_of(
            want.begin(), want.end(),
            [&](const auto& c) { return source.CellEquals(c, want[0]); });
        for (uint32_t r = 0; r < s.rows; ++r) {
          EXPECT_TRUE(SameCell(source, constant ? want[0] : want[r], decoded,
                               got[r]))
              << "slice " << i << " column " << col << " row " << r;
          if (constant) {
            expected.slices[i].tuples[r][col] =
                expected.slices[i].tuples[0][col];
          }
        }
      }
    }
    EXPECT_EQ(Dump(decoded.ToLayer()), Dump(expected)) << page_size;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchCodecTest, testing::Range(uint64_t{1},
                                                                uint64_t{41}));

TEST(PageCodecTest, SerializedPageRoundTripsAndDetectsCorruption) {
  const Layer layer = MixedLayer(1, 20);
  const auto pages = storage::EncodeLayer(layer, storage::kDefaultPageSize);
  ASSERT_FALSE(pages.empty());
  std::string wire;
  storage::SerializePage(pages[0], &wire);

  size_t offset = 0;
  auto parsed = storage::ParsePage(wire, &offset);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(offset, wire.size());
  EXPECT_EQ(parsed->payload, pages[0].payload);
  EXPECT_EQ(parsed->header.slice_count, pages[0].header.slice_count);

  // Flipping any payload byte trips the checksum; the error names the
  // offset the parse started at.
  std::string corrupt = wire;
  corrupt[wire.size() - 3] ^= 0x40;
  offset = 0;
  auto bad = storage::ParsePage(corrupt, &offset);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos);
  EXPECT_NE(bad.status().message().find("offset"), std::string::npos);

  // Truncation inside the header and inside the payload both fail.
  for (size_t cut : {size_t{10}, wire.size() - 5}) {
    offset = 0;
    EXPECT_FALSE(
        storage::ParsePage(std::string_view(wire).substr(0, cut), &offset)
            .ok());
  }
}

TEST(PageCacheTest, LruEvictionUnderBudgetAndPinning) {
  const Layer layer = MixedLayer(0, 40);
  const auto pages = storage::EncodeLayer(layer, 256);
  ASSERT_GE(pages.size(), 4u);
  const size_t page_bytes =
      storage::kPageWireHeaderBytes + pages[0].payload.size();

  PageCache cache(3 * page_bytes + page_bytes / 2);  // room for ~3 pages
  auto insert = [&](uint32_t i) {
    cache.Insert(PageKey{0, i}, std::make_shared<const Page>(pages[i]));
  };
  insert(0);
  insert(1);
  insert(2);
  EXPECT_NE(cache.Lookup(PageKey{0, 0}), nullptr);  // 0 is now MRU
  insert(3);                                        // evicts LRU = 1
  EXPECT_EQ(cache.Lookup(PageKey{0, 1}), nullptr);
  EXPECT_NE(cache.Lookup(PageKey{0, 0}), nullptr);
  EXPECT_TRUE(cache.Contains(PageKey{0, 3}));
  EXPECT_FALSE(cache.Contains(PageKey{0, 1}));

  // A pinned page survives budget pressure; unpinning re-exposes it.
  cache.Pin(PageKey{0, 0});
  insert(1);
  insert(2);
  EXPECT_NE(cache.Lookup(PageKey{0, 0}), nullptr);
  cache.Unpin(PageKey{0, 0});

  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(stats.bytes_cached, 4 * page_bytes);
}

TEST(PageCacheTest, ZeroBudgetCachesNothing) {
  const Layer layer = MixedLayer(0, 4);
  const auto pages = storage::EncodeLayer(layer, storage::kDefaultPageSize);
  PageCache cache(0);
  cache.Insert(PageKey{0, 0}, std::make_shared<const Page>(pages[0]));
  EXPECT_EQ(cache.Lookup(PageKey{0, 0}), nullptr);
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
}

TEST(BackgroundFlusherTest, RunsTasksAndDrains) {
  BackgroundFlusher flusher(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    flusher.Submit([&done] { done.fetch_add(1); });
  }
  flusher.Drain();
  EXPECT_EQ(done.load(), 32);
  EXPECT_EQ(flusher.tasks_executed(), 32u);
}

TEST(BackgroundFlusherTest, InlineModeExecutesInSubmit) {
  BackgroundFlusher flusher(0);
  EXPECT_EQ(flusher.num_threads(), 0);
  bool ran = false;
  flusher.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // no Drain needed
}

class LayerStoreTest : public testing::Test {
 protected:
  std::string Dir(const std::string& name) {
    return testing::TempDir() + "/layer_store_test/" + name;
  }
};

TEST_F(LayerStoreTest, SpillsAndReadsBack) {
  LayerStore store;
  EXPECT_FALSE(store.spill_enabled());
  std::vector<std::string> dumps;
  for (Superstep s = 0; s < 5; ++s) {
    const Layer layer = MixedLayer(s, 30);
    dumps.push_back(Dump(layer));
    ASSERT_TRUE(store.Append(BatchOf(layer)).ok());
  }
  EXPECT_EQ(store.num_layers(), 5);
  EXPECT_EQ(store.SpilledCount(), 0);

  LayerStoreOptions options;
  options.dir = Dir("roundtrip");
  options.mem_budget_bytes = 0;  // spill everything, cache nothing
  ASSERT_TRUE(store.Configure(options).ok());
  EXPECT_TRUE(store.spill_enabled());
  EXPECT_EQ(store.SpilledCount(), 5);
  EXPECT_EQ(store.InMemoryBytes(), 0u);
  EXPECT_FALSE(store.Configure(options).ok());  // reconfigure rejected

  for (int s = 4; s >= 0; --s) {
    auto layer = store.Read(s);
    ASSERT_TRUE(layer.ok()) << layer.status().ToString();
    EXPECT_EQ(Dump(**layer), dumps[static_cast<size_t>(s)]);
  }
  const auto stats = store.stats();
  EXPECT_EQ(stats.layers_flushed, 5u);
  EXPECT_GT(stats.pages_written, 0u);
  EXPECT_GT(stats.pages_read, 0u);
  EXPECT_LT(stats.CompressionRatio(), 1.0);
}

TEST_F(LayerStoreTest, RelationFilteredReadTouchesOnlyMatchingPages) {
  LayerStore store;
  ASSERT_TRUE(store.Append(BatchOf(MixedLayer(0, 200))).ok());
  LayerStoreOptions options;
  options.dir = Dir("filtered");
  options.mem_budget_bytes = 0;
  options.page_size = 512;  // many pages per relation
  ASSERT_TRUE(store.Configure(options).ok());
  const uint64_t total_pages = store.stats().pages_written;
  ASSERT_GT(total_pages, 2u);

  auto only0 = store.Read(0, {0});
  ASSERT_TRUE(only0.ok()) << only0.status().ToString();
  for (const auto& slice : (*only0)->slices()) EXPECT_EQ(slice.rel, 0);
  EXPECT_FALSE((*only0)->slices().empty());
  // Only relation 0's pages were read from disk.
  const uint64_t read_pages = store.stats().pages_read;
  EXPECT_LT(read_pages, total_pages);

  // The filtered layer matches the slice subset of the full one.
  auto full = store.Read(0);
  ASSERT_TRUE(full.ok());
  Layer expected;
  expected.step = 0;
  for (const auto& slice : (*full)->ToLayer().slices) {
    if (slice.rel == 0) expected.Add(slice.rel, slice.vertex, slice.tuples);
  }
  EXPECT_EQ(Dump(**only0), Dump(expected));
}

TEST_F(LayerStoreTest, PrefetchWarmsCache) {
  LayerStore store;
  ASSERT_TRUE(
      store.Append(BatchOf(MixedLayer(0, 100))).ok());
  LayerStoreOptions options;
  options.dir = Dir("prefetch");
  // Enough cache budget for every page, but no decoded-layer budget worth
  // mentioning: reads must go through pages.
  options.mem_budget_bytes = 4 << 20;
  ASSERT_TRUE(store.Configure(options).ok());
  // The budget above keeps the batch in memory.
  store.Prefetch(0, {});
  ASSERT_TRUE(store.Drain().ok());
  const auto warm = store.stats();
  // Prefetch is a no-op while the layer's batch is in memory.
  EXPECT_EQ(warm.prefetch_requests, 0u);
}

TEST_F(LayerStoreTest, PrefetchedPagesServeReadsFromCache) {
  LayerStore store;
  ASSERT_TRUE(
      store.Append(BatchOf(MixedLayer(0, 100))).ok());
  LayerStoreOptions options;
  options.dir = Dir("prefetch_cache");
  options.mem_budget_bytes = 0;
  ASSERT_TRUE(store.Configure(options).ok());
  // Budget 0 means no cache: prefetch requests are counted but nothing
  // is warmed, and reads parse from disk.
  store.Prefetch(0, {});
  ASSERT_TRUE(store.Drain().ok());
  EXPECT_EQ(store.stats().prefetch_pages, 0u);
  auto layer = store.Read(0);
  ASSERT_TRUE(layer.ok());
  EXPECT_GT(store.stats().pages_read, 0u);
}

TEST_F(LayerStoreTest, CorruptSpillFileErrorNamesPathAndOffset) {
  LayerStore store;
  ASSERT_TRUE(store.Append(BatchOf(MixedLayer(0, 50))).ok());
  LayerStoreOptions options;
  options.dir = Dir("corrupt");
  options.mem_budget_bytes = 0;
  ASSERT_TRUE(store.Configure(options).ok());

  const std::string path = options.dir + "/layer_0.apg";
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  std::string bytes = std::move(data).value();
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  auto layer = store.Read(0);
  ASSERT_FALSE(layer.ok());
  EXPECT_NE(layer.status().message().find(path), std::string::npos)
      << layer.status().ToString();
  EXPECT_NE(layer.status().message().find("offset"), std::string::npos)
      << layer.status().ToString();
}

TEST_F(LayerStoreTest, UnwritableSpillDirSurfacesStickyError) {
  LayerStore store;
  LayerStoreOptions options;
  options.dir = "/proc/ariadne-no-such-dir";  // mkdir and writes must fail
  options.mem_budget_bytes = 0;
  ASSERT_TRUE(store.Configure(options).ok());  // no layers yet: no I/O
  ASSERT_TRUE(store.Append(BatchOf(MixedLayer(0, 10))).ok());
  Status drained = store.Drain();
  ASSERT_FALSE(drained.ok());
  EXPECT_TRUE(drained.IsIOError()) << drained.ToString();
  // The error is sticky and the layer stays in memory (data is never
  // lost).
  EXPECT_FALSE(store.Drain().ok());
  EXPECT_EQ(store.SpilledCount(), 0);
  auto layer = store.Read(0);
  ASSERT_TRUE(layer.ok());
}

}  // namespace
}  // namespace ariadne
