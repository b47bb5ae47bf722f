#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/random.h"
#include "pql/relation.h"
#include "storage/capture_batch.h"

namespace ariadne {
namespace {

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.emplace_back(v);
  return t;
}

/// A key for Relation::Probe: pointers to `values`.
std::vector<const Value*> Key(const Tuple& values) {
  std::vector<const Value*> key;
  for (const Value& v : values) key.push_back(&v);
  return key;
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

TEST(RelationTest, ReplaceHolderDetectsNoChange) {
  Relation r(1);
  r.Insert(T({1}));
  r.Insert(T({2}));
  const uint64_t v = r.version();
  EXPECT_FALSE(r.ReplaceHolder(0, {T({2}), T({1}), T({1})}));  // same set
  EXPECT_EQ(r.version(), v);
  EXPECT_TRUE(r.ReplaceHolder(0, {T({1}), T({3})}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T({3})));
  EXPECT_FALSE(r.Contains(T({2})));
}

TEST(RelationTest, KillHolderIfThenCompact) {
  Relation r(2);
  for (int64_t i = 0; i < 10; ++i) r.Insert(T({i, i * 2}));
  EXPECT_EQ(r.Probe(0, Value(int64_t{1})).size(), 1u);  // index built
  r.KillHolderIf(0, [](const Relation::RowView& row) {
    return row.AsInt(0) < 5;
  });
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.end_row(), 10u);  // dead rows keep their ids until Compact
  EXPECT_FALSE(r.Contains(T({0, 0})));
  EXPECT_TRUE(r.Contains(T({9, 18})));
  // The index still chains the dead row; walkers skip it.
  const Relation::Bucket dead = r.Probe(0, Value(int64_t{1}));
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_FALSE(r.alive(*dead.begin()));
  // Compaction drops dead rows; indexes are rebuilt on the next probe.
  r.Compact();
  EXPECT_EQ(r.end_row(), 5u);
  EXPECT_FALSE(r.HasIndex(0));
  EXPECT_EQ(r.Probe(0, Value(int64_t{9})).size(), 1u);
  EXPECT_TRUE(r.Probe(0, Value(int64_t{1})).empty());
}

TEST(RelationTest, ProbesOnColumnSets) {
  Relation r(3);
  for (int64_t i = 0; i < 12; ++i) r.Insert(T({i % 2, i % 3, i}));
  const ColumnSet both = ColumnSetOf(0) | ColumnSetOf(1);
  std::vector<uint32_t> rows;
  const Tuple one_two = T({1, 2});
  for (uint32_t row : r.Probe(0, both, Key(one_two))) rows.push_back(row);
  EXPECT_EQ(rows, (std::vector<uint32_t>{5, 11}));
  EXPECT_TRUE(r.HasIndex(both));
  EXPECT_FALSE(r.HasIndex(0));  // a set of two is its own index
  EXPECT_EQ(r.Probe(0, Value(int64_t{1})).size(), 6u);
  EXPECT_TRUE(r.HasIndex(0));
  // 2.0 is a key of its own, and column 1 no longer holds only ints.
  EXPECT_TRUE(r.IntColumn(1));
  r.Insert({Value(int64_t{1}), Value(2.0), Value(int64_t{12})});
  EXPECT_FALSE(r.IntColumn(1));
  EXPECT_TRUE(r.IntColumn(2));
  EXPECT_EQ(r.Probe(0, both, Key(one_two)).size(), 2u);
  const Tuple one_two_double = {Value(int64_t{1}), Value(2.0)};
  EXPECT_EQ(r.Probe(0, both, Key(one_two_double)).size(), 1u);
  r.KillHolder(0);
  EXPECT_FALSE(r.IntColumn(1));  // kills do not forget
}

TEST(RelationTest, ByteSizeTracksContents) {
  Relation r(2);
  EXPECT_EQ(r.byte_size(), 0u);
  r.Insert(T({1, 2}));
  const size_t one = r.byte_size();
  EXPECT_GT(one, 0u);
  r.Insert(T({3, 4}));
  EXPECT_EQ(r.byte_size(), 2 * one);
  r.KillHolder(0);
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

TEST(RelationTest, HoldersScopeRowsAndSurviveCompaction) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(0, T({1, 10})));
  EXPECT_TRUE(r.Insert(1, T({1, 10})));  // same tuple, another holder
  EXPECT_FALSE(r.Insert(1, T({1, 10})));
  EXPECT_TRUE(r.Insert(1, T({1, 11})));
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.Contains(0, T({1, 10})));
  EXPECT_FALSE(r.Contains(0, T({1, 11})));
  EXPECT_EQ(r.Probe(1, 0, Value(int64_t{1})).size(), 2u);
  EXPECT_EQ(r.Probe(0, 0, Value(int64_t{1})).size(), 1u);

  // Killing holder 0 leaves holder 1 and its delta positions alone.
  const uint64_t gen = r.kill_gen();
  r.KillHolder(0);
  EXPECT_GT(r.holder_kill_gen(0), gen);
  EXPECT_EQ(r.holder_kill_gen(1), 0u);
  EXPECT_FALSE(r.Contains(0, T({1, 10})));
  EXPECT_TRUE(r.Contains(1, T({1, 10})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.end_row(), 3u);
  EXPECT_FALSE(r.alive(0));
  EXPECT_TRUE(r.Insert(0, T({1, 10})));  // a dead row does not dedup

  // Compaction drops the dead row, keeps the order and remaps row ids.
  const std::vector<uint32_t> remap = r.Compact();
  EXPECT_EQ(remap, (std::vector<uint32_t>{0, 0, 1, 2, 3}));
  EXPECT_EQ(r.end_row(), 3u);
  EXPECT_EQ(r.TupleAt(0), T({1, 10}));
  EXPECT_EQ(r.holder_of(0), 1u);
  EXPECT_EQ(r.holder_of(2), 0u);
  std::vector<uint32_t> rows;
  for (uint32_t row : r.HolderRows(1)) rows.push_back(row);
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(r.Probe(0, 1, Value(int64_t{10})).size(), 1u);

  // Replacing one holder's rows leaves the other's; the same set is no
  // change.
  EXPECT_FALSE(r.ReplaceHolder(1, {T({1, 11}), T({1, 10})}));
  EXPECT_TRUE(r.ReplaceHolder(1, {T({2, 20})}));
  EXPECT_EQ(r.holder_size(1), 1u);
  EXPECT_TRUE(r.Contains(0, T({1, 10})));
}

// ---------------------------------------------------------------------------
// Model test: random operation sequences (inserts, probes, kills, holder
// replacements, compactions) over three holders against a plain vector of
// rows scanned linearly, over every value kind and the equality corner
// cases (0.0 == -0.0, NaN != NaN, Value(1) != Value(1.0)).

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

/// The reference: every row ever inserted, by row id, with its holder
/// and whether it was killed; per-holder set semantics by linear scan
/// over the live rows.
struct Model {
  struct Row {
    Holder holder;
    Tuple tuple;
    bool alive;
  };
  std::vector<Row> rows;

  bool Contains(Holder h, const Tuple& t) const {
    for (const Row& row : rows) {
      if (row.alive && row.holder == h && row.tuple == t) return true;
    }
    return false;
  }
  /// Columns that ever held a non-int (Relation::IntColumn).
  ColumnSet non_int = 0;

  bool Insert(Holder h, const Tuple& t) {
    if (Contains(h, t)) return false;
    rows.push_back({h, t, true});
    for (size_t c = 0; c < t.size(); ++c) {
      if (!t[c].is_int()) non_int |= ColumnSetOf(static_cast<int>(c));
    }
    return true;
  }
  size_t Live(Holder h) const {
    size_t n = 0;
    for (const Row& row : rows) n += row.alive && row.holder == h ? 1 : 0;
    return n;
  }
  size_t Live() const {
    size_t n = 0;
    for (const Row& row : rows) n += row.alive ? 1 : 0;
    return n;
  }
  size_t ByteSize() const {
    size_t bytes = 0;
    for (const Row& row : rows) {
      if (row.alive) bytes += TupleByteSize(row.tuple);
    }
    return bytes;
  }
};

constexpr Holder kModelHolders = 3;

void ExpectMatches(const Relation& rel, const Model& model) {
  ASSERT_EQ(rel.end_row(), model.rows.size());
  ASSERT_EQ(rel.size(), model.Live());
  for (size_t i = 0; i < model.rows.size(); ++i) {
    const Model::Row& want = model.rows[i];
    ASSERT_EQ(rel.alive(i), want.alive) << "row " << i;
    ASSERT_EQ(rel.holder_of(i), want.holder) << "row " << i;
    if (!want.alive) continue;
    const Tuple got = rel.TupleAt(i);
    ASSERT_EQ(got.size(), want.tuple.size());
    for (size_t c = 0; c < got.size(); ++c) {
      ASSERT_TRUE(SameValue(got[c], want.tuple[c]))
          << "row " << i << " col " << c << ": " << got[c].ToString()
          << " vs " << want.tuple[c].ToString();
    }
  }
  for (Holder h = 0; h < kModelHolders; ++h) {
    ASSERT_EQ(rel.holder_size(h), model.Live(h)) << "holder " << h;
    std::vector<uint32_t> got, want;
    for (uint32_t row : rel.HolderRows(h)) {
      if (rel.alive(row)) got.push_back(row);
    }
    for (size_t i = 0; i < model.rows.size(); ++i) {
      if (model.rows[i].alive && model.rows[i].holder == h) {
        want.push_back(static_cast<uint32_t>(i));
      }
    }
    ASSERT_EQ(got, want) << "holder " << h;
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

    // Kinds 0-99 are the op mix, about 600 ops per seed; kinds 100-104
    // add about 30 cell-row inserts on top, and kinds 105-114 about 60
    // full-key lookups.
    for (int op = 0; op < 690; ++op) {
      const uint64_t version = rel.version();
      const uint64_t kill_gen = rel.kill_gen();
      const Holder h = static_cast<Holder>(rng.NextUInt(kModelHolders));
      const uint64_t holder_version = rel.holder_version(h);
      auto random_live_or_new = [&]() {
        if (rng.NextBool(0.5) && !model.rows.empty()) {
          const Model::Row& row = model.rows[rng.NextUInt(model.rows.size())];
          if (row.alive) return row.tuple;
        }
        return RandomTuple(rng);
      };
      const uint64_t kind = rng.NextUInt(115);
      if (kind < 40) {
        const Tuple t = RandomTuple(rng);
        const bool inserted = model.Insert(h, t);
        ASSERT_EQ(rel.Insert(h, t), inserted);
        EXPECT_EQ(rel.version() > version, inserted);
        EXPECT_EQ(rel.holder_version(h) > holder_version, inserted);
      } else if (kind < 50) {
        const size_t i = rng.NextUInt(other.size());
        const bool inserted = model.Insert(h, other.TupleAt(i));
        ASSERT_EQ(rel.Insert(h, other.row_view(i)), inserted);
        EXPECT_EQ(rel.version() > version, inserted);
      } else if (kind < 62) {
        const Tuple t = random_live_or_new();
        EXPECT_EQ(rel.Contains(h, t), model.Contains(h, t));
      } else if (kind < 80) {
        // A key of 1-3 columns. Most values of half the keys come from a
        // live row, so buckets are often non-empty.
        ColumnSet cols = 0;
        while (cols == 0) cols = rng.NextUInt(8);
        const Tuple source = random_live_or_new();
        Tuple key;
        std::string key_text;
        for (int c = 0; c < 3; ++c) {
          if ((cols & ColumnSetOf(c)) == 0) continue;
          key.push_back(rng.NextBool(0.8) ? source[static_cast<size_t>(c)]
                                          : RandomValue(rng));
          key_text += " col " + std::to_string(c) + " = " +
                      key.back().ToString();
        }
        std::vector<uint32_t> expected;
        for (size_t i = 0; i < model.rows.size(); ++i) {
          const Model::Row& row = model.rows[i];
          bool match = row.alive && row.holder == h;
          size_t j = 0;
          for (int c = 0; c < 3 && match; ++c) {
            if ((cols & ColumnSetOf(c)) == 0) continue;
            match = row.tuple[static_cast<size_t>(c)] == key[j++];
          }
          if (match) expected.push_back(static_cast<uint32_t>(i));
        }
        // Buckets list ascending row ids and may still chain dead rows.
        // A one-column key goes through either form of Probe.
        const Relation::Bucket bucket =
            key.size() == 1 && rng.NextBool(0.5)
                ? rel.Probe(h, std::countr_zero(cols), key[0])
                : rel.Probe(h, cols, Key(key));
        std::vector<uint32_t> got;
        for (uint32_t row : bucket) {
          if (rel.alive(row)) got.push_back(row);
        }
        EXPECT_EQ(got, expected) << "holder " << h << " probe" << key_text;
        EXPECT_TRUE(rel.HasIndex(cols));
        EXPECT_EQ(rel.version(), version);
      } else if (kind < 90) {
        // KillHolderIf on a column value, or KillHolder.
        const bool all = kind >= 86;
        const size_t col = rng.NextUInt(3);
        const Value v = RandomValue(rng);
        const bool had_rows = model.Live(h) > 0;
        for (Model::Row& row : model.rows) {
          if (row.alive && row.holder == h && (all || row.tuple[col] == v)) {
            row.alive = false;
          }
        }
        if (all) {
          rel.KillHolder(h);
        } else {
          rel.KillHolderIf(h, [&](const Relation::RowView& row) {
            return row.Equals(col, v);
          });
        }
        EXPECT_EQ(rel.version() > version, had_rows);
        EXPECT_EQ(rel.kill_gen() > kill_gen, had_rows);
        if (had_rows) {
          EXPECT_EQ(rel.holder_kill_gen(h), rel.kill_gen());
        }
      } else if (kind < 96) {
        std::vector<Tuple> tuples;
        const uint64_t n = rng.NextUInt(6);
        for (uint64_t k = 0; k < n; ++k) tuples.push_back(random_live_or_new());
        // Documented order: the deduplicated input set's iteration order.
        const std::unordered_set<Tuple, TupleHash> incoming(tuples.begin(),
                                                            tuples.end());
        bool same = incoming.size() == model.Live(h);
        for (const Tuple& t : incoming) same = same && model.Contains(h, t);
        if (!same) {
          for (Model::Row& row : model.rows) {
            if (row.holder == h) row.alive = false;
          }
          for (const Tuple& t : incoming) model.Insert(h, t);
        }
        EXPECT_EQ(rel.ReplaceHolder(h, tuples), !same);
        EXPECT_EQ(rel.version() > version, !same);
        EXPECT_EQ(rel.kill_gen() > kill_gen, !same);
      } else if (kind < 100) {
        const std::vector<uint32_t> remap = rel.Compact();
        ASSERT_EQ(remap.size(), model.rows.size() + 1);
        uint32_t kept = 0;
        for (size_t i = 0; i < model.rows.size(); ++i) {
          EXPECT_EQ(remap[i], kept) << "row " << i;
          kept += model.rows[i].alive ? 1 : 0;
        }
        EXPECT_EQ(remap.back(), kept);
        std::erase_if(model.rows,
                      [](const Model::Row& row) { return !row.alive; });
        EXPECT_EQ(rel.version(), version);
        EXPECT_EQ(rel.kill_gen(), kill_gen);
        EXPECT_EQ(rel.dead_rows(), 0u);
      } else if (kind < 105) {
        // A row of cells (a decoded layer's row), inserted like any other.
        const Tuple t = random_live_or_new();
        storage::CaptureBatch batch;
        batch.BeginSlice(0, 0);
        for (const Value& v : t) batch.AddValue(v);
        batch.EndRow();
        batch.EndSlice();
        const bool inserted = model.Insert(h, t);
        batch.ForEachRow(batch.slices()[0], [&](const CellRow& row) {
          EXPECT_EQ(rel.Insert(h, row), inserted);
        });
        EXPECT_EQ(rel.version() > version, inserted);
      } else {
        // A full key looked up in the dedup table: the live row a probe
        // on every column returns, if any. Keys mostly come from a row,
        // live or killed, with 0.0 and -0.0 swapped at random.
        Tuple key;
        if (rng.NextBool(0.7) && !model.rows.empty()) {
          key = model.rows[rng.NextUInt(model.rows.size())].tuple;
        } else {
          key = RandomTuple(rng);
        }
        for (Value& v : key) {
          if (rng.NextBool(0.2)) v = RandomValue(rng);
          if (v.is_double() && v.AsDouble() == 0.0 && rng.NextBool(0.5)) {
            v = Value(-v.AsDouble());
          }
        }
        std::vector<uint32_t> expected;
        for (size_t i = 0; i < model.rows.size(); ++i) {
          const Model::Row& row = model.rows[i];
          if (row.alive && row.holder == h && row.tuple == key) {
            expected.push_back(static_cast<uint32_t>(i));
          }
        }
        std::vector<uint32_t> got;
        for (uint32_t row : rel.Find(h, Key(key))) got.push_back(row);
        EXPECT_EQ(got, expected) << "holder " << h << " find "
                                 << TupleToString(key);
        EXPECT_EQ(rel.version(), version);
      }
      ExpectMatches(rel, model);
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(rel.IntColumn(c), (model.non_int & ColumnSetOf(c)) == 0)
            << "col " << c;
      }
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace ariadne
