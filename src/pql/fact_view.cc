#include "pql/fact_view.h"

#include <algorithm>
#include <array>
#include <bit>

namespace ariadne {

namespace {

size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// A key's hash: `hash_of(col, j)` (Value::Hash of the j-th key column)
/// combined in column order.
template <typename HashOf>
uint64_t KeyHash(ColumnSet cols, HashOf hash_of) {
  size_t seed = 0;
  size_t j = 0;
  for (ColumnSet rest = cols; rest != 0; rest &= rest - 1, ++j) {
    seed = HashCombine(
        seed, hash_of(static_cast<size_t>(std::countr_zero(rest)), j));
  }
  return seed;
}

bool KeyMatches(const CellRow& row, ColumnSet cols,
                std::span<const Value* const> key) {
  size_t j = 0;
  for (ColumnSet rest = cols; rest != 0; rest &= rest - 1, ++j) {
    const size_t col = static_cast<size_t>(std::countr_zero(rest));
    if (col >= row.size() || !row.Equals(col, *key[j])) return false;
  }
  return true;
}

}  // namespace

void FactView::Add(Holder holder, const FactLayer& layer,
                   const CellRow::Cell* cells, uint32_t rows, size_t bytes) {
  if (layers_.empty() || !(layers_.back() == layer)) layers_.push_back(layer);
  if (holder >= holders_.size()) holders_.resize(holder + 1);
  holders_[holder].push_back(static_cast<uint32_t>(slices_.size()));
  slices_.push_back(
      Slice{cells, rows, holder, static_cast<uint32_t>(layers_.size() - 1)});
  rows_ += rows;
  bytes_ += bytes;
}

int64_t FactView::AtStep(Holder holder, int64_t step) const {
  const std::span<const uint32_t> ids = HolderSlices(holder);
  if (ids.empty()) return -1;
  // A run adds its layers in ascending or in descending step order.
  const bool ascending = StepOf(ids.front()) <= StepOf(ids.back());
  const auto it =
      std::partition_point(ids.begin(), ids.end(), [&](uint32_t id) {
        return ascending ? StepOf(id) < step : StepOf(id) > step;
      });
  if (it == ids.end() || StepOf(*it) != step) return -1;
  return *it;
}

void FactView::Scan(uint32_t id, ColumnSet cols,
                    std::span<const Value* const> key,
                    std::vector<FactRef>* out) const {
  const Slice& slice = slices_[id];
  for (uint32_t r = 0; r < slice.rows; ++r) {
    if (KeyMatches(Row(slice, r), cols, key)) out->push_back({id, r});
  }
}

const FactView::HolderIndex& FactView::IndexOf(Holder holder, ColumnSet cols,
                                               bool* built) {
  auto it = std::find_if(indexes_.begin(), indexes_.end(),
                         [cols](const Index& i) { return i.cols == cols; });
  Index& index = it != indexes_.end() ? *it : indexes_.emplace_back();
  index.cols = cols;
  if (index.holders.size() <= holder) index.holders.resize(holder + 1);
  HolderIndex& h = index.holders[holder];
  const std::span<const uint32_t> ids = HolderSlices(holder);
  *built = h.slices == 0;
  const auto old = static_cast<std::ptrdiff_t>(h.keys.size());
  for (; h.slices < ids.size(); ++h.slices) {
    const uint32_t id = ids[h.slices];
    const Slice& slice = slices_[id];
    for (uint32_t r = 0; r < slice.rows; ++r) {
      const CellRow row = Row(slice, r);
      const uint64_t hash = KeyHash(cols, [&](size_t col, size_t) {
        return col < row.size() ? row.Hash(col) : 0;
      });
      h.keys.emplace_back(hash, FactRef{id, r});
    }
  }
  std::sort(h.keys.begin() + old, h.keys.end());
  std::inplace_merge(h.keys.begin(), h.keys.begin() + old, h.keys.end());
  return h;
}

bool FactView::Probe(Holder holder, ColumnSet cols,
                     std::span<const Value* const> key, size_t below,
                     std::vector<FactRef>* out) {
  out->clear();
  std::span<const uint32_t> ids = HolderSlices(holder);
  ids = ids.first(static_cast<size_t>(
      std::lower_bound(ids.begin(), ids.end(), below) - ids.begin()));
  if (ids.empty()) return false;
  const ColumnSet step = ColumnSetOf(step_col_);
  if ((cols & step) != 0) {
    // Only the slice of the keyed step can hold a matching row.
    const Value& v =
        *key[static_cast<size_t>(std::popcount(cols & (step - 1)))];
    const int64_t id = v.is_int() ? AtStep(holder, v.AsInt()) : -1;
    if (id < 0 || static_cast<size_t>(id) >= below) return false;
    if (slices_[static_cast<size_t>(id)].rows <= kScanRows) {
      Scan(static_cast<uint32_t>(id), cols, key, out);
      return false;
    }
  } else {
    size_t rows = 0;
    for (uint32_t id : ids) rows += slices_[id].rows;
    if (rows <= kScanRows) {
      for (uint32_t id : ids) Scan(id, cols, key, out);
      return false;
    }
  }
  bool built = false;
  const HolderIndex& index = IndexOf(holder, cols, &built);
  const uint64_t hash =
      KeyHash(cols, [&](size_t, size_t j) { return key[j]->Hash(); });
  for (auto it = std::lower_bound(index.keys.begin(), index.keys.end(),
                                  std::pair(hash, FactRef{}));
       it != index.keys.end() && it->first == hash; ++it) {
    const FactRef ref = it->second;
    if (ref.slice < below && KeyMatches(Row(ref), cols, key)) {
      out->push_back(ref);
    }
  }
  return built;
}

bool FactView::Contains(Holder holder, std::span<const Value> row) {
  const size_t n = row.size();
  if (n == 0 || n > kMaxKeyColumns) return false;
  std::array<const Value*, kMaxKeyColumns> key;
  for (size_t c = 0; c < n; ++c) key[c] = &row[c];
  std::vector<FactRef> found;
  Probe(holder, AllColumns(static_cast<int>(n)), std::span(key.data(), n),
        slices_.size(), &found);
  return !found.empty();
}

}  // namespace ariadne
