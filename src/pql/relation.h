#ifndef ARIADNE_PQL_RELATION_H_
#define ARIADNE_PQL_RELATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/value.h"

namespace ariadne {

/// One row of a PQL relation as an exchange value. Column 0 is always the
/// location specifier (a vertex id as Value::kInt) — see DESIGN.md:
/// keeping the location explicit lets the same evaluation code run
/// holder-scoped (every mode's per-vertex semantics) and globally.
///
/// Relations no longer *store* rows in this form (see Relation::Cell);
/// Tuple remains the format tuples enter and leave a Relation in.
using Tuple = std::vector<Value>;

struct TupleHash {
  size_t operator()(const Tuple& t) const;
};

std::string TupleToString(const Tuple& t);

/// A relation's rows are grouped by holder: the provenance node whose
/// state the row belongs to. One Database keeps the state of a range of
/// vertices (holder h is vertex base + h); a database of one vertex, a
/// global database and a query's merged tables use holder 0 only.
using Holder = uint32_t;

/// A row of typed cells held outside any Relation: a decoded layer's row
/// (storage::CaptureBatch). Ints and doubles are inline; strings and
/// double vectors are `len` chars / doubles at `off` of the owner's
/// pools. Column `col` is `cells[col * stride]`: a column-major slice
/// strides by its row count, a row-major one by 1.
struct CellRow {
  /// One typed cell, 16 bytes.
  struct Cell {
    Value::Kind tag = Value::Kind::kNull;
    uint32_t len = 0;
    union {
      int64_t i = 0;
      double d;
      uint64_t off;
    };
  };

  const Cell* cells = nullptr;
  size_t stride = 1;
  size_t n = 0;
  const char* chars = nullptr;
  const double* doubles = nullptr;

  size_t size() const { return n; }
  const Cell& cell(size_t col) const { return cells[col * stride]; }
  Value::Kind kind(size_t col) const { return cell(col).tag; }
  int64_t AsInt(size_t col) const { return cell(col).i; }
  double AsDouble(size_t col) const { return cell(col).d; }
  std::string_view AsString(size_t col) const {
    return {chars + cell(col).off, cell(col).len};
  }
  std::span<const double> AsDoubleVector(size_t col) const {
    return {doubles + cell(col).off, cell(col).len};
  }
  /// Value::Hash of column `col`, computed without materializing it.
  size_t Hash(size_t col) const;
  /// Column `col` as a Value (copies string and vector payloads).
  Value value(size_t col) const;
  /// Whether column `col` equals `v`: same kind and payload, doubles
  /// compared with == (0.0 equals -0.0, NaN equals nothing).
  bool Equals(size_t col, const Value& v) const;
};

/// A set of a relation's columns, bit c for column c: what an index is
/// keyed on. Only the first kMaxKeyColumns columns can be keyed.
using ColumnSet = uint64_t;
inline constexpr int kMaxKeyColumns = 64;
/// The set of column `col` alone; empty when `col` cannot be keyed.
inline constexpr ColumnSet ColumnSetOf(int col) {
  return static_cast<unsigned>(col) < kMaxKeyColumns ? ColumnSet{1} << col
                                                     : 0;
}
/// Every keyable column of an `arity`-column relation.
inline constexpr ColumnSet AllColumns(int arity) {
  return arity >= kMaxKeyColumns ? ~ColumnSet{0}
                                 : (ColumnSet{1} << arity) - 1;
}

/// Set-semantics relation with insertion-order row access (for delta
/// scans via external watermarks), duplicate elimination, and lazily
/// built, incrementally maintained hash indexes for joins.
///
/// Every row belongs to a holder. Dedup, Contains and column probes are
/// per holder: the same tuple may be stored once for each holder, and a
/// probe returns only the given holder's rows, so a database shared by
/// many vertices answers each of them exactly as a private one would.
/// A holder's rows also form an insertion-order chain (HolderRows).
///
/// Storage is flat: rows live as fixed-size cells in one contiguous
/// arena (ints and doubles inline; strings and double vectors interned
/// into per-relation pools, created on first use, and referenced by id).
/// Dedup and the indexes are open-addressing tables over row ids that
/// keep their capacity across kills and compactions, so inserts, probes
/// and retention do no per-row heap allocation. An index is keyed by a
/// set of columns; a one-column index is the set of one. `byte_size()`
/// still accounts the logical Tuple footprint, keeping the paper's
/// provenance-size numbers unchanged.
///
/// Removing one holder's rows (KillHolder, KillHolderIf, ReplaceHolder)
/// marks them dead in place: row ids and every other holder's delta
/// watermarks stay valid, and the holder's kill generation tells readers
/// to rescan it. Compact() drops dead rows and returns the row-id remap.
class Relation {
 public:
  /// One flat column cell. 16 bytes; the payload interpretation follows
  /// the tag (inline int/double, or an id into the owning relation's
  /// string / double-vector pool).
  struct Cell {
    Value::Kind tag = Value::Kind::kNull;
    union {
      int64_t i;
      double d;
      uint32_t ref;
    };
  };

  /// Borrowed view of one stored row. Valid until the next mutating call
  /// on the owning relation (same lifetime rule as Probe results).
  class RowView {
   public:
    RowView() = default;

    size_t size() const { return n_; }
    Value::Kind kind(size_t col) const { return cells_[col].tag; }
    bool is_int(size_t col) const {
      return cells_[col].tag == Value::Kind::kInt;
    }
    int64_t AsInt(size_t col) const { return cells_[col].i; }
    double AsDouble(size_t col) const { return cells_[col].d; }
    const std::string& AsString(size_t col) const;
    const std::vector<double>& AsDoubleVector(size_t col) const;

    /// Materializes column `col` as a Value (copies interned payloads).
    Value value(size_t col) const;

    /// Column-against-Value comparison without materializing the cell.
    bool Equals(size_t col, const Value& v) const;

    /// Value::Hash of column `col`, computed without materializing it.
    size_t Hash(size_t col) const;

    Tuple ToTuple() const;

   private:
    friend class Relation;
    RowView(const Relation* rel, const Cell* cells, uint32_t n)
        : rel_(rel), cells_(cells), n_(n) {}

    const Relation* rel_ = nullptr;
    const Cell* cells_ = nullptr;
    uint32_t n_ = 0;
  };

  /// Probe result: ascending row ids of one chain (a holder's rows whose
  /// indexed columns equal the probed key, or all of a holder's rows).
  /// It covers the rows the chain held when it was returned: rows
  /// inserted while a caller iterates (a recursive rule deriving into the
  /// relation it probes) are not visited, and inserting keeps the bucket
  /// valid. Dead rows stay in chains until Compact; callers skip them
  /// (alive()). Invalidated by Compact.
  class Bucket {
   public:
    class Iterator {
     public:
      uint32_t operator*() const { return row_; }
      Iterator& operator++() {
        if (--left_ > 0) row_ = (*next_)[row_];
        return *this;
      }
      bool operator==(const Iterator& o) const { return left_ == o.left_; }

     private:
      friend class Bucket;
      Iterator(const std::vector<uint32_t>* next, uint32_t row, uint32_t left)
          : next_(next), row_(row), left_(left) {}

      const std::vector<uint32_t>* next_;
      uint32_t row_;
      uint32_t left_;
    };

    Bucket() = default;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Iterator begin() const { return Iterator(next_, head_, size_); }
    Iterator end() const { return Iterator(next_, head_, 0); }

   private:
    friend class Relation;
    Bucket(const std::vector<uint32_t>* next, uint32_t head, uint32_t size)
        : next_(next), head_(head), size_(size) {}

    const std::vector<uint32_t>* next_ = nullptr;
    uint32_t head_ = 0;
    uint32_t size_ = 0;
  };

  explicit Relation(int arity = 0) : arity_(arity) {}

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  int arity() const { return arity_; }
  /// Live rows of every holder.
  size_t size() const { return rows_.size() - dead_rows_; }
  bool empty() const { return size() == 0; }
  /// One past the largest row id: rows [0, end_row()) exist, dead ones
  /// included. Delta watermarks and scans range over row ids.
  size_t end_row() const { return rows_.size(); }
  bool alive(size_t i) const { return dead_[i] == 0; }
  Holder holder_of(size_t i) const { return rows_[i].holder; }
  size_t dead_rows() const { return dead_rows_; }

  /// Borrowed view of row `i` (invalidated by the next mutating call).
  RowView row_view(size_t i) const {
    const uint32_t begin = RowBegin(i);
    return RowView(this, cells_.data() + begin, rows_[i].end - begin);
  }

  /// Materializes row `i` as a Tuple (copies interned payloads).
  Tuple TupleAt(size_t i) const { return row_view(i).ToTuple(); }

  /// Inserts a row of `holder`; returns false (and drops it) when the
  /// holder already has it. The holder-less overloads use holder 0.
  bool Insert(Holder holder, std::span<const Value> t);
  bool Insert(std::span<const Value> t) { return Insert(0, t); }
  bool Insert(std::initializer_list<Value> t) {
    return Insert(0, std::span<const Value>(t.begin(), t.size()));
  }
  bool Insert(const Tuple& t) { return Insert(0, std::span<const Value>(t)); }
  /// Copies a row of another relation (re-interning its payloads).
  bool Insert(Holder holder, const RowView& row);
  bool Insert(const RowView& row) { return Insert(0, row); }
  /// Inserts a row given as cells (a decoded layer's row).
  bool Insert(Holder holder, const CellRow& row);

  bool Contains(Holder holder, std::span<const Value> t) const;
  bool Contains(std::span<const Value> t) const { return Contains(0, t); }
  bool Contains(const Tuple& t) const {
    return Contains(0, std::span<const Value>(t));
  }

  /// `holder`'s rows whose columns `cols` (non-empty) equal `key`, the
  /// key pointing at one value per column in ascending column order (the
  /// values stay where they are). Builds an index on `cols` (keyed by
  /// holder and the column values) on first use and extends it
  /// incrementally afterwards.
  Bucket Probe(Holder holder, ColumnSet cols,
               std::span<const Value* const> key);
  /// The one-column case: `holder`'s rows whose column `col` equals `v`.
  Bucket Probe(Holder holder, int col, const Value& v) {
    const Value* key = &v;
    return Probe(holder, ColumnSetOf(col), std::span(&key, 1));
  }
  Bucket Probe(int col, const Value& v) { return Probe(0, col, v); }

  /// `holder`'s row equal to `row` (one value per column, in column
  /// order), looked up in the dedup table: a bucket of at most one row,
  /// the one a Probe on every column would return. Builds no index.
  Bucket Find(Holder holder, std::span<const Value* const> row) const;

  /// All of `holder`'s rows, in insertion order.
  Bucket HolderRows(Holder holder) const;

  /// Whether Probe already built an index on `cols` (profiling: lets the
  /// evaluator count index builds before triggering one).
  bool HasIndex(ColumnSet cols) const;
  bool HasIndex(int col) const { return HasIndex(ColumnSetOf(col)); }

  /// Whether every row ever inserted held an int in column `col` (true
  /// while the relation is empty; kills do not reset it). A key derived
  /// by integer arithmetic may then stand for a numeric comparison.
  bool IntColumn(int col) const {
    return col < kMaxKeyColumns && (non_int_cols_ & ColumnSetOf(col)) == 0;
  }
  /// The keyable columns IntColumn holds for.
  ColumnSet int_columns() const { return ~non_int_cols_; }

  /// Approximate memory footprint of the live tuples (indexes excluded)
  /// — the unit of the provenance-size accounting (Tables 3-4).
  size_t byte_size() const { return byte_size_; }

  /// Monotone mutation counter; evaluation watermarks compare sums of
  /// versions to skip rules whose inputs did not change.
  uint64_t version() const { return version_; }

  /// Live rows of `holder`, its mutation counter, and the generation of
  /// its last row removal (0 = never; compare with kill_gen()).
  size_t holder_size(Holder holder) const {
    return holder < holders_.size() ? holders_[holder].live : 0;
  }
  uint64_t holder_version(Holder holder) const {
    return holder < holders_.size() ? holders_[holder].version : 0;
  }
  uint64_t holder_kill_gen(Holder holder) const {
    return holder < holders_.size() ? holders_[holder].kill_gen : 0;
  }
  /// Largest holder kill generation handed out so far.
  uint64_t kill_gen() const { return kill_gen_; }
  /// Holders that ever had a row (ids [0, num_holders())).
  size_t num_holders() const { return holders_.size(); }

  /// Marks `holder`'s rows matching `pred` (all rows without one) dead.
  /// When the holder had live rows its version and kill generation move
  /// even if nothing matched: a retention pass over a holder always makes
  /// the rules reading the relation rescan that holder.
  void KillHolder(Holder holder);
  void KillHolderIf(Holder holder,
                    const std::function<bool(const RowView&)>& pred);

  /// Replaces `holder`'s rows (aggregate re-evaluation): when they
  /// changed, kills every old row and appends the deduplicated input in
  /// its set's iteration order. Returns whether they changed.
  bool ReplaceHolder(Holder holder, std::vector<Tuple> tuples);

  /// Drops dead rows, keeping live ones in order, and returns the row-id
  /// remap: a watermark w (rows [0, w) consumed) becomes remap[w]. The
  /// caller remaps every watermark it holds; column indexes are rebuilt
  /// on the next probe.
  std::vector<uint32_t> Compact();

  /// Deterministic dump of the live rows for tests/goldens.
  std::vector<std::string> ToSortedStrings() const;

 private:
  static constexpr uint32_t kNoRow = 0xffffffffu;
  /// Dedup slot of a dead row: probing continues past it.
  static constexpr uint32_t kTombstone = 0xffffffffu;

  /// Per-row bookkeeping: end offset of the row's cells (row i spans
  /// [RowBegin(i), end)) and the holder.
  struct RowMeta {
    uint32_t end;
    Holder holder;
  };

  /// One holder's chain of rows plus its counters.
  struct HolderSlot {
    uint32_t head = 0;
    uint32_t tail = 0;
    uint32_t rows = 0;  ///< chain length, dead rows included
    uint32_t live = 0;
    uint64_t version = 0;
    uint64_t kill_gen = 0;
  };

  /// One distinct (holder, key) of an index: its rows form a chain
  /// through ColumnIndex::next, from `head` to `tail`, in insertion
  /// order. `count == 0` marks an empty table slot.
  struct KeySlot {
    uint32_t hash = 0;
    uint32_t head = 0;
    uint32_t tail = 0;
    uint32_t count = 0;
  };

  struct ColumnIndex {
    bool built = false;
    uint32_t num_keys = 0;
    std::vector<KeySlot> slots;  ///< open addressing, power-of-two size
    /// Per indexed row (rows [0, next.size()) are indexed): the next row
    /// with the same key.
    std::vector<uint32_t> next;
  };

  /// Interned payloads. Deques keep element addresses stable so views and
  /// the id maps can reference them. Pools survive kills and Compact:
  /// retention churn re-inserts mostly the same payloads, and stale
  /// entries are unreachable once no row references them.
  struct StringPool {
    std::deque<std::string> items;
    std::vector<size_t> hashes;  ///< std::hash of each pooled string
    std::unordered_map<std::string_view, uint32_t> ids;
  };
  struct VectorPool {
    std::deque<std::vector<double>> items;
    std::vector<size_t> hashes;  ///< Value-compatible payload hashes
    std::unordered_map<size_t, std::vector<uint32_t>> ids;
  };

  uint32_t RowBegin(size_t i) const { return i == 0 ? 0 : rows_[i - 1].end; }

  template <typename Row>
  bool InsertRow(Holder holder, const Row& row);
  template <typename Row>
  size_t FindRowSlot(Holder holder, uint32_t hash, const Row& row) const;
  template <typename Row>
  bool CellEquals(const Cell& c, const Row& row, size_t col) const;
  template <typename Row>
  void EncodeRow(const Row& row);

  HolderSlot& Slot(Holder holder);
  void GrowDedup();
  /// Adds the next unindexed row to `index`, an index on `cols`.
  void IndexNextRow(ColumnSet cols, ColumnIndex& index);
  void ResetIndexes();
  /// Marks live row `i` dead (dedup slot tombstoned, counters updated).
  void KillRow(uint32_t i);
  /// Records that `holder` lost rows: new version and kill generation.
  void BumpKillGen(Holder holder);
  /// Whether `holder`'s live rows are exactly `tuples`.
  bool HolderHolds(Holder holder,
                   const std::unordered_set<Tuple, TupleHash>& tuples) const;
  /// Re-places every row in the dedup table and rebuilds holder chains.
  void RebuildDedupAndChains();

  uint32_t InternString(std::string_view s);
  uint32_t InternDoubleVector(std::span<const double> v);

  Value CellToValue(const Cell& c) const;
  /// Matches Value::Hash of the materialized cell exactly, so rows and
  /// keys hash alike whether they arrive as Values or as cells.
  size_t CellHash(const Cell& c) const;
  size_t RowByteSize(size_t i) const;

  int arity_;
  /// Cell arena: row i is cells_[RowBegin(i), rows_[i].end).
  std::vector<Cell> cells_;
  std::vector<RowMeta> rows_;
  std::vector<uint8_t> dead_;  ///< per row: 1 once killed
  size_t dead_rows_ = 0;
  std::vector<HolderSlot> holders_;
  /// Per row: the next row of the same holder (HolderRows' chain).
  std::vector<uint32_t> holder_next_;
  /// Per row: its hash (holder included), computed once on insert.
  std::vector<uint32_t> hashes_;
  /// Dedup table: row id + 1 per slot, 0 = empty; power-of-two size.
  std::vector<uint32_t> dedup_;
  /// One index per probed column set. Boxed: a Bucket points into its
  /// index, and probing a new set must not move the others.
  struct IndexEntry {
    ColumnSet cols;
    std::unique_ptr<ColumnIndex> index;
  };
  std::vector<IndexEntry> indexes_;
  ColumnSet non_int_cols_ = 0;  ///< columns that ever held a non-int
  std::unique_ptr<StringPool> strings_;
  std::unique_ptr<VectorPool> vectors_;
  size_t byte_size_ = 0;
  uint64_t version_ = 0;
  uint64_t kill_gen_ = 0;
};

/// Memory size of one tuple (sum of value footprints + row overhead).
size_t TupleByteSize(const Tuple& t);

}  // namespace ariadne

#endif  // ARIADNE_PQL_RELATION_H_
