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
#include <vector>

#include "common/value.h"

namespace ariadne {

/// One row of a PQL relation as an exchange value. Column 0 is always the
/// location specifier (a vertex id as Value::kInt) — see DESIGN.md:
/// keeping the location explicit lets the same evaluation code run
/// per-vertex (online/layered) and globally (naive).
///
/// Relations no longer *store* rows in this form (see Relation::Cell);
/// Tuple remains the format tuples enter and leave a Relation in.
using Tuple = std::vector<Value>;

struct TupleHash {
  size_t operator()(const Tuple& t) const;
};

std::string TupleToString(const Tuple& t);

/// Set-semantics relation with insertion-order row access (for delta
/// scans via external watermarks), duplicate elimination, and lazily
/// built, incrementally maintained single-column hash indexes for joins.
///
/// Storage is flat: rows live as fixed-size cells in one contiguous
/// arena (ints and doubles inline; strings and double vectors interned
/// into per-relation pools, created on first use, and referenced by id).
/// Dedup and the column indexes are open-addressing tables over row ids
/// that keep their capacity across Clear/RemoveIf, so inserts, probes and
/// retention do no per-row heap allocation. `byte_size()` still accounts
/// the logical Tuple footprint, keeping the paper's provenance-size
/// numbers unchanged.
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

  /// Probe result: the ids of the rows whose indexed column equals the
  /// probed value, ascending. It walks the index's per-key row chain and
  /// covers the rows the bucket held when Probe returned: rows inserted
  /// while a caller iterates (a recursive rule deriving into the relation
  /// it probes) are not visited, and inserting keeps the bucket valid.
  /// Invalidated by Clear, RemoveIf and ReplaceAll.
  class Bucket {
   public:
    class Iterator {
     public:
      uint32_t operator*() const { return row_; }
      Iterator& operator++() {
        if (--left_ > 0) row_ = rel_->NextInChain(col_, row_);
        return *this;
      }
      bool operator==(const Iterator& o) const { return left_ == o.left_; }

     private:
      friend class Bucket;
      Iterator(const Relation* rel, int col, uint32_t row, uint32_t left)
          : rel_(rel), col_(col), row_(row), left_(left) {}

      const Relation* rel_;
      int col_;
      uint32_t row_;
      uint32_t left_;
    };

    Bucket() = default;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Iterator begin() const { return Iterator(rel_, col_, head_, size_); }
    Iterator end() const { return Iterator(rel_, col_, head_, 0); }

   private:
    friend class Relation;
    Bucket(const Relation* rel, int col, uint32_t head, uint32_t size)
        : rel_(rel), col_(col), head_(head), size_(size) {}

    const Relation* rel_ = nullptr;
    int col_ = 0;
    uint32_t head_ = 0;
    uint32_t size_ = 0;
  };

  explicit Relation(int arity = 0) : arity_(arity) {}

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  int arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Borrowed view of row `i` (invalidated by the next mutating call).
  RowView row_view(size_t i) const {
    const uint32_t begin = RowBegin(i);
    return RowView(this, cells_.data() + begin, rows_[i].end - begin);
  }

  /// Materializes row `i` as a Tuple (copies interned payloads).
  Tuple TupleAt(size_t i) const { return row_view(i).ToTuple(); }

  /// Inserts a row; returns false (and drops it) when already present.
  bool Insert(std::span<const Value> t);
  bool Insert(std::initializer_list<Value> t) {
    return Insert(std::span<const Value>(t.begin(), t.size()));
  }
  bool Insert(const Tuple& t) { return Insert(std::span<const Value>(t)); }
  /// Copies a row of another relation (re-interning its payloads).
  bool Insert(const RowView& row);

  bool Contains(std::span<const Value> t) const;
  bool Contains(const Tuple& t) const {
    return Contains(std::span<const Value>(t));
  }

  /// Rows whose column `col` equals `v`. Builds an index on `col` on
  /// first use and extends it incrementally afterwards.
  Bucket Probe(int col, const Value& v);

  /// Whether Probe already built an index on `col` (profiling: lets the
  /// evaluator count index builds before triggering one).
  bool HasIndex(int col) const {
    return static_cast<size_t>(col) < indexes_.size() &&
           indexes_[static_cast<size_t>(col)].built;
  }

  /// Approximate memory footprint of the stored tuples (indexes excluded)
  /// — the unit of the provenance-size accounting (Tables 3-4).
  size_t byte_size() const { return byte_size_; }

  /// Monotone mutation counter; evaluation watermarks compare sums of
  /// versions to skip rules whose inputs did not change.
  uint64_t version() const { return version_; }

  /// Bumped whenever existing rows are rearranged or removed (Clear,
  /// RemoveIf, ReplaceAll). Row-index-based delta watermarks are only
  /// valid within one epoch; on a mismatch the consumer rescans.
  uint64_t epoch() const { return epoch_; }

  /// Replaces the full contents (aggregate re-evaluation). Returns true
  /// if the contents changed.
  bool ReplaceAll(std::vector<Tuple> tuples);

  /// Removes rows matching `pred` (online history retention), compacting
  /// the arena in place; kept rows keep their relative order. Always
  /// starts a new epoch and drops the column indexes.
  void RemoveIf(const std::function<bool(const RowView&)>& pred);

  void Clear();

  /// Deterministic dump for tests/goldens.
  std::vector<std::string> ToSortedStrings() const;

 private:
  static constexpr uint32_t kNoRow = 0xffffffffu;

  /// Per-row bookkeeping: end offset of the row's cells (row i spans
  /// [RowBegin(i), end)) and the row's hash, computed once on insert.
  struct RowMeta {
    uint32_t end;
    uint32_t hash;
  };

  /// One distinct key of a column index: its rows form a chain through
  /// ColumnIndex::next, from `head` to `tail`, in insertion order.
  /// `count == 0` marks an empty table slot.
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
  /// the id maps can reference them. Pools survive Clear(): retention
  /// churn re-inserts mostly the same payloads, and stale entries are
  /// unreachable once no row references them.
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
  uint32_t NextInChain(int col, uint32_t row) const {
    return indexes_[static_cast<size_t>(col)].next[row];
  }

  template <typename Row>
  bool InsertRow(const Row& row);
  template <typename Row>
  size_t FindRowSlot(uint32_t hash, const Row& row) const;
  template <typename Row>
  bool CellEquals(const Cell& c, const Row& row, size_t col) const;
  template <typename Row>
  void EncodeRow(const Row& row);

  void GrowDedup();
  /// Adds the next unindexed row to `index`.
  void IndexNextRow(ColumnIndex& index, int col);
  void ResetIndexes();

  uint32_t InternString(const std::string& s);
  uint32_t InternDoubleVector(const std::vector<double>& v);

  Value CellToValue(const Cell& c) const;
  /// Matches Value::Hash of the materialized cell exactly, so rows and
  /// keys hash alike whether they arrive as Values or as cells.
  size_t CellHash(const Cell& c) const;
  size_t RowByteSize(size_t i) const;

  int arity_;
  /// Cell arena: row i is cells_[RowBegin(i), rows_[i].end).
  std::vector<Cell> cells_;
  std::vector<RowMeta> rows_;
  /// Dedup table: row id + 1 per slot, 0 = empty; power-of-two size.
  std::vector<uint32_t> dedup_;
  std::vector<ColumnIndex> indexes_;  ///< by column, sized on first Probe
  std::unique_ptr<StringPool> strings_;
  std::unique_ptr<VectorPool> vectors_;
  size_t byte_size_ = 0;
  uint64_t version_ = 0;
  uint64_t epoch_ = 0;
};

/// Memory size of one tuple (sum of value footprints + row overhead).
size_t TupleByteSize(const Tuple& t);

}  // namespace ariadne

#endif  // ARIADNE_PQL_RELATION_H_
