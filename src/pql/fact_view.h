#ifndef ARIADNE_PQL_FACT_VIEW_H_
#define ARIADNE_PQL_FACT_VIEW_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/value.h"
#include "pql/relation.h"

namespace ariadne {

/// A layer whose cells a FactView reads: its step, and the string and
/// double-vector pools of its batch, which outlives every view of it.
struct FactLayer {
  int64_t step = 0;
  const char* chars = nullptr;
  const double* doubles = nullptr;

  bool operator==(const FactLayer&) const = default;
};

/// A row of a FactView: slice id and row within the slice.
struct FactRef {
  uint32_t slice = 0;
  uint32_t row = 0;
  auto operator<=>(const FactRef&) const = default;
};

/// One partition's facts of one step-pure EDB predicate, read in place
/// from the layer batches an offline run stepped through (DESIGN.md §2.3):
/// a log of slices, each one holder's rows of one layer, plus per-holder
/// slice lists. No row is copied, hashed or indexed when a slice is added.
///
/// Every row of a slice holds the slice's step in the step column, and a
/// holder has at most one slice per step, so a holder's rows form a set
/// and a probe that keys the step column reads one slice. Other probes,
/// and probes of slices longer than kScanRows, go through an index built
/// lazily for the probed holder alone and extended as it gains slices.
///
/// The view lives in its run's partition database: one thread at a time.
class FactView {
 public:
  /// One holder's rows of one layer: `rows` columnar rows of the view's
  /// arity (row r's column c is cells[c * rows + r]).
  struct Slice {
    const CellRow::Cell* cells = nullptr;
    uint32_t rows = 0;
    Holder holder = 0;
    uint32_t layer = 0;  ///< index into the view's layers
  };

  /// A probe scans its candidate rows (a slice, or a holder's rows) when
  /// they are at most this many, and builds an index over the holder's
  /// rows otherwise.
  static constexpr uint32_t kScanRows = 64;

  /// For a predicate of `arity` columns with step column `step_col`.
  FactView(int step_col, int arity)
      : step_col_(step_col), arity_(static_cast<uint32_t>(arity)) {}

  /// Appends `holder`'s `rows` (> 0) rows of `layer`, a step it has no
  /// rows of yet, at `cells`; they hold `bytes` logical bytes.
  void Add(Holder holder, const FactLayer& layer, const CellRow::Cell* cells,
           uint32_t rows, size_t bytes);

  /// Slices in the order they were added: delta walks range over ids,
  /// and the count is the view's version.
  size_t num_slices() const { return slices_.size(); }
  const Slice& slice(size_t id) const { return slices_[id]; }
  CellRow Row(const Slice& slice, uint32_t r) const {
    const FactLayer& layer = layers_[slice.layer];
    return CellRow{slice.cells + r, slice.rows, arity_, layer.chars,
                   layer.doubles};
  }
  CellRow Row(FactRef ref) const { return Row(slices_[ref.slice], ref.row); }
  /// `holder`'s slice ids, in the order they were added.
  std::span<const uint32_t> HolderSlices(Holder holder) const {
    if (holder >= holders_.size()) return {};
    return holders_[holder];
  }
  bool Holds(Holder holder) const { return !HolderSlices(holder).empty(); }
  /// Grows whenever `holder` gains rows.
  uint64_t holder_version(Holder holder) const {
    return HolderSlices(holder).size();
  }
  size_t num_rows() const { return rows_; }
  size_t byte_size() const { return bytes_; }
  int step_column() const { return step_col_; }

  /// Replaces `out` with `holder`'s rows of the slices below `below`
  /// whose columns `cols` (non-empty) equal `key` (one value per column,
  /// ascending), in the order they were added. Returns whether the probe
  /// built an index.
  bool Probe(Holder holder, ColumnSet cols, std::span<const Value* const> key,
             size_t below, std::vector<FactRef>* out);
  /// Whether `holder` has the row `row`.
  bool Contains(Holder holder, std::span<const Value> row);

 private:
  /// One holder's rows of an index: (key hash, row) sorted, so equal keys
  /// list their rows in the order they were added.
  struct HolderIndex {
    uint32_t slices = 0;  ///< the holder's first `slices` slices are in
    std::vector<std::pair<uint64_t, FactRef>> keys;
  };
  struct Index {
    ColumnSet cols = 0;
    std::vector<HolderIndex> holders;
  };

  int64_t StepOf(uint32_t id) const {
    return layers_[slices_[id].layer].step;
  }
  /// The id of `holder`'s slice at `step`, or -1.
  int64_t AtStep(Holder holder, int64_t step) const;
  /// Appends the rows of slice `id` matching the key to `out`.
  void Scan(uint32_t id, ColumnSet cols, std::span<const Value* const> key,
            std::vector<FactRef>* out) const;
  /// `holder`'s index on `cols`, extended over its slices; sets `built`
  /// when this call created it.
  const HolderIndex& IndexOf(Holder holder, ColumnSet cols, bool* built);

  int step_col_;
  uint32_t arity_;
  std::vector<FactLayer> layers_;
  std::vector<Slice> slices_;
  std::vector<std::vector<uint32_t>> holders_;  ///< per holder: slice ids
  std::vector<Index> indexes_;
  size_t rows_ = 0;
  size_t bytes_ = 0;
};

}  // namespace ariadne

#endif  // ARIADNE_PQL_FACT_VIEW_H_
