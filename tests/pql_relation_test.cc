#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/random.h"
#include "pql/relation.h"

namespace ariadne {
namespace {

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.emplace_back(v);
  return t;
}

TEST(RelationTest, InsertDedups) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(T({1, 2})));
  EXPECT_TRUE(r.Insert(T({1, 3})));
  EXPECT_FALSE(r.Insert(T({1, 2})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T({1, 2})));
  EXPECT_FALSE(r.Contains(T({2, 1})));
}

TEST(RelationTest, VersionBumpsOnChange) {
  Relation r(1);
  const uint64_t v0 = r.version();
  r.Insert(T({1}));
  EXPECT_GT(r.version(), v0);
  const uint64_t v1 = r.version();
  r.Insert(T({1}));  // duplicate: no change
  EXPECT_EQ(r.version(), v1);
}

TEST(RelationTest, ProbeFindsMatchingRows) {
  Relation r(2);
  r.Insert(T({1, 10}));
  r.Insert(T({2, 20}));
  r.Insert(T({1, 30}));
  auto rows = r.Probe(0, Value(int64_t{1}));
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_TRUE(r.Probe(0, Value(int64_t{9})).empty());
  // Index extends incrementally on later inserts.
  r.Insert(T({1, 40}));
  EXPECT_EQ(r.Probe(0, Value(int64_t{1})).size(), 3u);
  // Second-column index coexists.
  EXPECT_EQ(r.Probe(1, Value(int64_t{20})).size(), 1u);
}

TEST(RelationTest, ReplaceAllDetectsNoChange) {
  Relation r(1);
  r.Insert(T({1}));
  r.Insert(T({2}));
  const uint64_t v = r.version();
  EXPECT_FALSE(r.ReplaceAll({T({2}), T({1}), T({1})}));  // same set
  EXPECT_EQ(r.version(), v);
  EXPECT_TRUE(r.ReplaceAll({T({1}), T({3})}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T({3})));
  EXPECT_FALSE(r.Contains(T({2})));
}

TEST(RelationTest, RemoveIf) {
  Relation r(2);
  for (int64_t i = 0; i < 10; ++i) r.Insert(T({i, i * 2}));
  r.RemoveIf([](const Relation::RowView& row) { return row.AsInt(0) < 5; });
  EXPECT_EQ(r.size(), 5u);
  EXPECT_FALSE(r.Contains(T({0, 0})));
  EXPECT_TRUE(r.Contains(T({9, 18})));
  // Probe index rebuilt correctly after removal.
  EXPECT_EQ(r.Probe(0, Value(int64_t{9})).size(), 1u);
  EXPECT_TRUE(r.Probe(0, Value(int64_t{1})).empty());
}

TEST(RelationTest, ByteSizeTracksContents) {
  Relation r(2);
  EXPECT_EQ(r.byte_size(), 0u);
  r.Insert(T({1, 2}));
  const size_t one = r.byte_size();
  EXPECT_GT(one, 0u);
  r.Insert(T({3, 4}));
  EXPECT_EQ(r.byte_size(), 2 * one);
  r.Clear();
  EXPECT_EQ(r.byte_size(), 0u);
}

TEST(RelationTest, SortedStringsDeterministic) {
  Relation r(1);
  r.Insert(T({3}));
  r.Insert(T({1}));
  r.Insert(T({2}));
  EXPECT_EQ(r.ToSortedStrings(),
            (std::vector<std::string>{"(1)", "(2)", "(3)"}));
}

TEST(RelationTest, MixedValueKindsDistinct) {
  Relation r(1);
  EXPECT_TRUE(r.Insert({Value(int64_t{1})}));
  EXPECT_TRUE(r.Insert({Value(1.0)}));  // different kind, different tuple
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, ProbeBucketIgnoresRowsInsertedWhileIterating) {
  Relation r(2);
  r.Insert(T({1, 10}));
  r.Insert(T({1, 11}));
  r.Insert(T({2, 12}));
  std::vector<uint32_t> seen;
  for (uint32_t row : r.Probe(0, Value(int64_t{1}))) {
    seen.push_back(row);
    // A recursive rule derives into the relation it walks.
    r.Insert(T({1, 100 + static_cast<int64_t>(row)}));
  }
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(r.Probe(0, Value(int64_t{1})).size(), 4u);
}

// ---------------------------------------------------------------------------
// Model test: random operation sequences against a plain vector of tuples
// scanned linearly, over every value kind and the equality corner cases
// (0.0 == -0.0, NaN != NaN, Value(1) != Value(1.0)).

/// Same value, treating NaN as equal to NaN: a NaN row must come back as
/// the NaN it went in as. Value == (used for set semantics) says they
/// differ.
bool SameValue(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_double()) {
    return a.AsDouble() == b.AsDouble() ||
           (std::isnan(a.AsDouble()) && std::isnan(b.AsDouble()));
  }
  if (a.is_double_vector()) {
    const auto& x = a.AsDoubleVector();
    const auto& y = b.AsDoubleVector();
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (!(x[i] == y[i] || (std::isnan(x[i]) && std::isnan(y[i])))) {
        return false;
      }
    }
    return true;
  }
  return a == b;
}

Value RandomValue(Rng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (rng.NextUInt(11)) {
    case 0:
    case 1:
    case 2:
      return Value(static_cast<int64_t>(rng.NextUInt(4)));
    case 3:
      return Value(1.0);  // vs the int 1 above
    case 4:
      return Value(0.0);
    case 5:
      return Value(-0.0);
    case 6:
      return rng.NextBool(0.2) ? Value(nan) : Value(2.5);
    case 7: {
      static const char* kStrings[] = {"a", "b", ""};
      return Value(kStrings[rng.NextUInt(3)]);
    }
    case 8:
      return Value(std::vector<double>{1.0, rng.NextBool(0.5) ? 0.0 : -0.0});
    case 9:
      return rng.NextBool(0.1) ? Value(std::vector<double>{nan})
                               : Value(std::vector<double>{});
    default:
      return Value();
  }
}

Tuple RandomTuple(Rng& rng) {
  return {RandomValue(rng), RandomValue(rng), RandomValue(rng)};
}

/// The reference: rows in insertion order, set semantics by linear scan.
struct Model {
  std::vector<Tuple> rows;

  bool Contains(const Tuple& t) const {
    for (const Tuple& row : rows) {
      if (row == t) return true;
    }
    return false;
  }
  bool Insert(const Tuple& t) {
    if (Contains(t)) return false;
    rows.push_back(t);
    return true;
  }
  size_t ByteSize() const {
    size_t bytes = 0;
    for (const Tuple& row : rows) bytes += TupleByteSize(row);
    return bytes;
  }
};

void ExpectMatches(const Relation& rel, const Model& model) {
  ASSERT_EQ(rel.size(), model.rows.size());
  for (size_t i = 0; i < model.rows.size(); ++i) {
    const Tuple got = rel.TupleAt(i);
    ASSERT_EQ(got.size(), model.rows[i].size());
    for (size_t c = 0; c < got.size(); ++c) {
      ASSERT_TRUE(SameValue(got[c], model.rows[i][c]))
          << "row " << i << " col " << c << ": " << got[c].ToString()
          << " vs " << model.rows[i][c].ToString();
    }
  }
  EXPECT_EQ(rel.byte_size(), model.ByteSize());
}

TEST(RelationTest, MatchesLinearScanModel) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Relation rel(3);
    Model model;
    Relation other(3);  // source of RowView inserts
    for (int i = 0; i < 40; ++i) other.Insert(RandomTuple(rng));

    for (int op = 0; op < 600; ++op) {
      const uint64_t version = rel.version();
      const uint64_t epoch = rel.epoch();
      const uint64_t kind = rng.NextUInt(100);
      if (kind < 45) {
        const Tuple t = RandomTuple(rng);
        const bool inserted = model.Insert(t);
        ASSERT_EQ(rel.Insert(t), inserted);
        EXPECT_EQ(rel.version() > version, inserted);
        EXPECT_EQ(rel.epoch(), epoch);
      } else if (kind < 55) {
        const size_t i = rng.NextUInt(other.size());
        const bool inserted = model.Insert(other.TupleAt(i));
        ASSERT_EQ(rel.Insert(other.row_view(i)), inserted);
        EXPECT_EQ(rel.version() > version, inserted);
      } else if (kind < 70) {
        const Tuple t = rng.NextBool(0.5) && !model.rows.empty()
                            ? model.rows[rng.NextUInt(model.rows.size())]
                            : RandomTuple(rng);
        EXPECT_EQ(rel.Contains(t), model.Contains(t));
      } else if (kind < 88) {
        const int col = static_cast<int>(rng.NextUInt(3));
        const Value v = RandomValue(rng);
        std::vector<uint32_t> expected;
        for (size_t i = 0; i < model.rows.size(); ++i) {
          if (model.rows[i][static_cast<size_t>(col)] == v) {
            expected.push_back(static_cast<uint32_t>(i));
          }
        }
        const Relation::Bucket bucket = rel.Probe(col, v);
        EXPECT_EQ(bucket.size(), expected.size());
        std::vector<uint32_t> got;
        for (uint32_t row : bucket) got.push_back(row);
        EXPECT_EQ(got, expected) << "probe col " << col << " = "
                                 << v.ToString();
        EXPECT_TRUE(rel.HasIndex(col));
        EXPECT_EQ(rel.version(), version);
      } else if (kind < 94) {
        const size_t col = rng.NextUInt(3);
        const Value v = RandomValue(rng);
        auto matches = [&](const Tuple& t) { return t[col] == v; };
        std::erase_if(model.rows, matches);
        rel.RemoveIf([&](const Relation::RowView& row) {
          return row.Equals(col, v);
        });
        EXPECT_GT(rel.version(), version);
        EXPECT_GT(rel.epoch(), epoch);
        EXPECT_FALSE(rel.HasIndex(0));
      } else if (kind < 98) {
        std::vector<Tuple> tuples;
        const uint64_t n = rng.NextUInt(6);
        for (uint64_t k = 0; k < n; ++k) {
          tuples.push_back(rng.NextBool(0.3) && !model.rows.empty()
                               ? model.rows[rng.NextUInt(model.rows.size())]
                               : RandomTuple(rng));
        }
        // Documented order: the deduplicated input set's iteration order.
        const std::unordered_set<Tuple, TupleHash> incoming(tuples.begin(),
                                                            tuples.end());
        bool same = incoming.size() == model.rows.size();
        for (const Tuple& t : incoming) same = same && model.Contains(t);
        if (!same) model.rows.assign(incoming.begin(), incoming.end());
        EXPECT_EQ(rel.ReplaceAll(tuples), !same);
        EXPECT_EQ(rel.version() > version, !same);
        EXPECT_EQ(rel.epoch() > epoch, !same);
      } else {
        model.rows.clear();
        rel.Clear();
        EXPECT_GT(rel.version(), version);
        EXPECT_GT(rel.epoch(), epoch);
      }
      ExpectMatches(rel, model);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace ariadne
