#ifndef ARIADNE_STORAGE_CAPTURE_BATCH_H_
#define ARIADNE_STORAGE_CAPTURE_BATCH_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "engine/types.h"
#include "pql/relation.h"
#include "storage/layer.h"

namespace ariadne::storage {

struct Page;

/// One layer's provenance (or one partition's share of it) as typed
/// cells, with no Tuple or Value per row: the write format of capture and
/// the read format of evaluation. Capture writes a batch per evaluation
/// partition at the superstep barrier, Concat joins them into the layer's
/// batch, the layer store keeps that batch until the flusher has encoded
/// its pages straight from the cells (EncodeBatch, storage/page.h), and
/// reads decode pages back into a batch (DecodePage). A Layer of Tuples
/// is built only when a reader asks for one (ToLayer).
///
/// A slice holds all rows one vertex contributed to one store relation,
/// like a LayerSlice. Rows are written one cell at a time between
/// BeginSlice and EndSlice; EndSlice stores a slice whose rows share one
/// non-zero arity column-major (the page codec's columnar slice format)
/// and any other slice row-major with per-row arities (its row-major
/// format). Logical bytes (TupleByteSize) and the SerializeLayer byte
/// count are summed from cell kinds and payload lengths as rows arrive.
class CaptureBatch {
 public:
  /// One typed cell: ints and doubles inline; strings and double vectors
  /// are `len` chars / doubles at `off` in the batch's pools.
  using Cell = CellRow::Cell;

  /// `arity` of a row-major slice.
  static constexpr uint32_t kRowMajor = 0xffffffffu;

  /// All rows one vertex contributed to one relation. A columnar slice
  /// keeps cell (row r, column c) at `begin + c * rows + r`; a row-major
  /// slice keeps its rows' cells in order from `begin` and row r's arity
  /// at `arity_begin + r` of the arity list.
  struct Slice {
    int rel = 0;
    /// Written as Steps::kLayer (decoded slices never are).
    bool at_step = false;
    VertexId vertex = 0;
    uint32_t rows = 0;
    uint32_t arity = 0;
    uint64_t begin = 0;
    uint64_t arity_begin = 0;
    uint64_t bytes = 0;       ///< logical (TupleByteSize) bytes
    uint64_t serialized = 0;  ///< SerializeLayer bytes of the slice
  };

  Superstep step = 0;

  // ---- Writing ----

  /// What the writer of a slice knows of its rows.
  enum class Rows {
    kAny,       ///< a row may repeat
    kDistinct,  ///< the writer guarantees that no row repeats
    /// EndRow drops a row equal (Value equality) to one the slice already
    /// holds: the set semantics of a projected relation per (vertex,
    /// relation).
    kDedup,
  };

  /// What the writer knows of the step column of a slice's relation
  /// (EdbStepColumn of the built-in EDB it is named after, if any).
  enum class Steps {
    kAny,    ///< nothing
    kLayer,  ///< every row holds the batch's step there
  };

  /// Opens a slice of `rel` at `vertex`.
  void BeginSlice(int rel, VertexId vertex, Rows rows = Rows::kAny,
                  Steps steps = Steps::kAny);
  void AddNull();
  void AddInt(int64_t v);
  void AddDouble(double v);
  void AddString(std::string_view s);
  void AddDoubleVector(std::span<const double> v);
  void AddValue(const Value& v);
  /// Closes the row of the cells added since the previous EndRow.
  /// Returns false when a dedup slice dropped it as a duplicate.
  bool EndRow();
  /// Adds every cell of `row` and closes the row.
  bool AddRow(const Relation::RowView& row);
  bool AddRow(const CellRow& row);
  /// Closes the open slice; a slice without rows leaves no trace.
  /// Returns whether it kept any row.
  bool EndSlice();

  /// Drops every slice, keeping the buffers' capacity for reuse.
  void Clear();

  /// The batch of the layer made of `parts` (the partition batches in
  /// partition order): slices grouped by ascending relation and, within
  /// a relation, in part order and each part's own order. Partitions
  /// cover ascending vertex ranges, so the result is the canonical
  /// (relation, vertex) order for any thread count, with no sort. With a
  /// non-empty `only_rels`, slices of other relations are left out.
  static CaptureBatch Concat(Superstep step,
                             std::span<const CaptureBatch> parts,
                             std::span<const int> only_rels = {});

  /// `layer`'s slices in layer order (empty slices dropped), each as a
  /// set: a row equal to an earlier one of its slice is dropped.
  static CaptureBatch FromLayer(const Layer& layer);

  /// This batch with each slice's repeated rows dropped (the first of
  /// equal rows stays).
  CaptureBatch Distinct() const;

  /// Whether every slice is known to hold a set: it was written as
  /// kDistinct or kDedup, or it has one row. A decoded slice of more rows
  /// is not known to be one.
  bool sets() const { return sets_; }

  // ---- Reading ----

  const std::vector<Slice>& slices() const { return slices_; }

  /// Column `col` of columnar slice `s` (s.rows cells).
  std::span<const Cell> column(const Slice& s, size_t col) const {
    return {cells_.data() + s.begin + col * s.rows, s.rows};
  }
  /// Every cell of slice `s` in storage order.
  std::span<const Cell> cells(const Slice& s) const;
  /// Per-row arities of row-major slice `s`.
  std::span<const uint32_t> row_arities(const Slice& s) const {
    return {arities_.data() + s.arity_begin, s.rows};
  }
  /// Calls `fn(row)` with each row of slice `s` in order, as a CellRow
  /// over this batch's cells.
  template <typename Fn>
  void ForEachRow(const Slice& s, Fn&& fn) const {
    if (s.arity == kRowMajor) {
      const Cell* cell = cells_.data() + s.begin;
      for (uint32_t arity : row_arities(s)) {
        fn(CellRow{cell, 1, arity, chars_.data(), doubles_.data()});
        cell += arity;
      }
    } else {
      for (uint32_t r = 0; r < s.rows; ++r) {
        fn(CellRow{cells_.data() + s.begin + r, s.rows, s.arity,
                   chars_.data(), doubles_.data()});
      }
    }
  }
  /// The pools a CellRow over this batch's cells reads payloads from.
  const char* chars() const { return chars_.data(); }
  const double* doubles() const { return doubles_.data(); }
  std::string_view AsString(const Cell& c) const {
    return {chars_.data() + c.off, c.len};
  }
  std::span<const double> AsDoubleVector(const Cell& c) const {
    return {doubles_.data() + c.off, c.len};
  }
  /// Value equality of two cells of this batch: kinds must match, and
  /// doubles compare with == (0.0 equals -0.0, NaN equals nothing).
  bool CellEquals(const Cell& a, const Cell& b) const;

  /// The layer as Tuples, for readers of the Tuple API.
  Layer ToLayer() const;

  /// Logical bytes of all rows (what Layer::byte_size would hold).
  size_t byte_size() const { return byte_size_; }
  /// Bytes SerializeLayer would write for ToLayer() (the storage stats'
  /// compression-ratio denominator).
  size_t serialized_bytes() const;
  int64_t num_tuples() const { return num_tuples_; }

 private:
  friend Status DecodePage(const Page& page, CaptureBatch* batch);

  void Push(const Cell& c) { staging_.push_back(c); }
  /// Books a slice whose cells are in place: its byte counts and the
  /// batch's totals. `set`: its rows are known to be distinct.
  void SealSlice(Slice s, bool set);
  Value ToValue(const Cell& c) const;
  size_t RowHash(size_t begin, size_t end) const;
  bool RowsEqual(size_t a_begin, size_t b_begin, size_t n) const;
  /// Places staged row `row` in the dedup table (which must have room).
  void PlaceInDedup(uint32_t row);

  std::vector<Cell> cells_;
  std::vector<uint32_t> arities_;  ///< row-major slices' row arities
  std::string chars_;              ///< string pool
  std::vector<double> doubles_;    ///< double-vector pool
  std::vector<Slice> slices_;
  size_t byte_size_ = 0;
  size_t serialized_ = 0;
  int64_t num_tuples_ = 0;
  bool sets_ = true;

  // The open slice: its rows are staged row-major until EndSlice.
  Slice open_;
  Rows rows_ = Rows::kAny;
  std::vector<Cell> staging_;
  std::vector<uint32_t> row_begin_;  ///< staged rows' first cells (+ end)
  std::vector<uint32_t> row_hash_;   ///< dedup slices: staged row hashes
  /// Open addressing over staged rows (row + 1; 0 = empty), pow2 size.
  std::vector<uint32_t> dedup_slots_;
  size_t row_chars_ = 0;    ///< pool sizes when the open row began, so a
  size_t row_doubles_ = 0;  ///< dropped duplicate rolls its payloads back
};

}  // namespace ariadne::storage

#endif  // ARIADNE_STORAGE_CAPTURE_BATCH_H_
