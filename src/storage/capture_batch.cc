#include "storage/capture_batch.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/logging.h"

namespace ariadne::storage {

namespace {

using Cell = CaptureBatch::Cell;

/// Value::ByteSize of the cell's value.
uint64_t LogicalBytes(const Cell& c) {
  switch (c.tag) {
    case Value::Kind::kNull:
      return 1;
    case Value::Kind::kInt:
    case Value::Kind::kDouble:
      return 8;
    case Value::Kind::kString:
      return sizeof(size_t) + c.len;
    case Value::Kind::kDoubleVector:
      return sizeof(size_t) + uint64_t{c.len} * sizeof(double);
  }
  return 0;
}

/// Bytes BinaryWriter::WriteValue writes for the cell's value.
uint64_t SerializedBytes(const Cell& c) {
  switch (c.tag) {
    case Value::Kind::kNull:
      return 1;
    case Value::Kind::kInt:
    case Value::Kind::kDouble:
      return 1 + 8;
    case Value::Kind::kString:
      return 1 + sizeof(uint64_t) + c.len;
    case Value::Kind::kDoubleVector:
      return 1 + sizeof(uint64_t) + uint64_t{c.len} * sizeof(double);
  }
  return 0;
}

/// SerializeLayer's fixed costs: step + slice count per layer; rel +
/// vertex + tuple count per slice; arity per tuple.
constexpr uint64_t kLayerHeaderBytes = 8 + 8;
constexpr uint64_t kSliceHeaderBytes = 4 + 8 + 8;
constexpr uint64_t kTupleHeaderBytes = 4;

/// 0.0 and -0.0 are equal Values and must hash alike.
uint64_t DoubleBits(double d) {
  if (d == 0.0) return 0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Adds every cell of `row` (a Relation::RowView or a CellRow) to
/// `batch` and closes the row.
template <typename Row>
bool AddCells(CaptureBatch& batch, const Row& row) {
  for (size_t col = 0; col < row.size(); ++col) {
    switch (row.kind(col)) {
      case Value::Kind::kNull:
        batch.AddNull();
        break;
      case Value::Kind::kInt:
        batch.AddInt(row.AsInt(col));
        break;
      case Value::Kind::kDouble:
        batch.AddDouble(row.AsDouble(col));
        break;
      case Value::Kind::kString:
        batch.AddString(row.AsString(col));
        break;
      case Value::Kind::kDoubleVector:
        batch.AddDoubleVector(row.AsDoubleVector(col));
        break;
    }
  }
  return batch.EndRow();
}

}  // namespace

void CaptureBatch::BeginSlice(int rel, VertexId vertex, Rows rows,
                              Steps steps) {
  open_ = Slice{};
  open_.rel = rel;
  open_.vertex = vertex;
  open_.at_step = steps == Steps::kLayer;
  rows_ = rows;
  staging_.clear();
  row_begin_.assign(1, 0);
  row_hash_.clear();
  if (rows_ == Rows::kDedup) dedup_slots_.assign(16, 0);
  row_chars_ = chars_.size();
  row_doubles_ = doubles_.size();
}

void CaptureBatch::AddNull() { Push(Cell{}); }

void CaptureBatch::AddInt(int64_t v) {
  Cell c;
  c.tag = Value::Kind::kInt;
  c.i = v;
  Push(c);
}

void CaptureBatch::AddDouble(double v) {
  Cell c;
  c.tag = Value::Kind::kDouble;
  c.d = v;
  Push(c);
}

void CaptureBatch::AddString(std::string_view s) {
  ARIADNE_CHECK(s.size() <= 0xffffffffu);
  Cell c;
  c.tag = Value::Kind::kString;
  c.len = static_cast<uint32_t>(s.size());
  c.off = chars_.size();
  chars_.append(s);
  Push(c);
}

void CaptureBatch::AddDoubleVector(std::span<const double> v) {
  ARIADNE_CHECK(v.size() <= 0xffffffffu);
  Cell c;
  c.tag = Value::Kind::kDoubleVector;
  c.len = static_cast<uint32_t>(v.size());
  c.off = doubles_.size();
  doubles_.insert(doubles_.end(), v.begin(), v.end());
  Push(c);
}

void CaptureBatch::AddValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      AddNull();
      return;
    case Value::Kind::kInt:
      AddInt(v.AsInt());
      return;
    case Value::Kind::kDouble:
      AddDouble(v.AsDouble());
      return;
    case Value::Kind::kString:
      AddString(v.AsString());
      return;
    case Value::Kind::kDoubleVector:
      AddDoubleVector(v.AsDoubleVector());
      return;
  }
}

bool CaptureBatch::AddRow(const Relation::RowView& row) {
  return AddCells(*this, row);
}

bool CaptureBatch::AddRow(const CellRow& row) { return AddCells(*this, row); }

size_t CaptureBatch::RowHash(size_t begin, size_t end) const {
  uint64_t h = end - begin;
  for (size_t i = begin; i < end; ++i) {
    const Cell& c = staging_[i];
    h = Mix(h, static_cast<uint64_t>(c.tag));
    switch (c.tag) {
      case Value::Kind::kNull:
        break;
      case Value::Kind::kInt:
        h = Mix(h, static_cast<uint64_t>(c.i));
        break;
      case Value::Kind::kDouble:
        h = Mix(h, DoubleBits(c.d));
        break;
      case Value::Kind::kString:
        h = Mix(h, std::hash<std::string_view>()(AsString(c)));
        break;
      case Value::Kind::kDoubleVector:
        for (double d : AsDoubleVector(c)) h = Mix(h, DoubleBits(d));
        break;
    }
  }
  return static_cast<size_t>(h);
}

bool CaptureBatch::CellEquals(const Cell& a, const Cell& b) const {
  if (a.tag != b.tag) return false;
  switch (a.tag) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kInt:
      return a.i == b.i;
    case Value::Kind::kDouble:
      return a.d == b.d;
    case Value::Kind::kString:
      return AsString(a) == AsString(b);
    case Value::Kind::kDoubleVector: {
      const auto x = AsDoubleVector(a);
      const auto y = AsDoubleVector(b);
      return std::equal(x.begin(), x.end(), y.begin(), y.end());
    }
  }
  return false;
}

bool CaptureBatch::RowsEqual(size_t a_begin, size_t b_begin, size_t n) const {
  for (size_t i = 0; i < n; ++i) {
    if (!CellEquals(staging_[a_begin + i], staging_[b_begin + i])) {
      return false;
    }
  }
  return true;
}

void CaptureBatch::PlaceInDedup(uint32_t row) {
  const size_t mask = dedup_slots_.size() - 1;
  size_t slot = row_hash_[row] & mask;
  while (dedup_slots_[slot] != 0) slot = (slot + 1) & mask;
  dedup_slots_[slot] = row + 1;
}

bool CaptureBatch::EndRow() {
  const size_t begin = row_begin_.back();
  const size_t end = staging_.size();
  if (rows_ == Rows::kDedup) {
    const uint32_t hash = static_cast<uint32_t>(RowHash(begin, end));
    const size_t mask = dedup_slots_.size() - 1;
    for (size_t slot = hash & mask; dedup_slots_[slot] != 0;
         slot = (slot + 1) & mask) {
      const uint32_t other = dedup_slots_[slot] - 1;
      const size_t other_begin = row_begin_[other];
      if (row_hash_[other] == hash &&
          row_begin_[other + 1] - other_begin == end - begin &&
          RowsEqual(other_begin, begin, end - begin)) {
        staging_.resize(begin);
        chars_.resize(row_chars_);
        doubles_.resize(row_doubles_);
        return false;
      }
    }
    const uint32_t row = static_cast<uint32_t>(row_hash_.size());
    row_hash_.push_back(hash);
    if (2 * row_hash_.size() > dedup_slots_.size()) {
      dedup_slots_.assign(2 * dedup_slots_.size(), 0);
      for (uint32_t r = 0; r <= row; ++r) PlaceInDedup(r);
    } else {
      PlaceInDedup(row);
    }
  }
  row_begin_.push_back(static_cast<uint32_t>(end));
  row_chars_ = chars_.size();
  row_doubles_ = doubles_.size();
  return true;
}

bool CaptureBatch::EndSlice() {
  Slice s = open_;
  s.rows = static_cast<uint32_t>(row_begin_.size() - 1);
  if (s.rows == 0) {
    staging_.clear();
    return false;
  }
  const uint32_t arity = row_begin_[1];
  bool uniform = arity > 0;
  for (uint32_t r = 1; uniform && r < s.rows; ++r) {
    uniform = row_begin_[r + 1] - row_begin_[r] == arity;
  }
  s.begin = cells_.size();
  if (uniform) {
    s.arity = arity;
    cells_.resize(cells_.size() + staging_.size());
    Cell* out = cells_.data() + s.begin;
    for (uint32_t r = 0; r < s.rows; ++r) {
      for (uint32_t c = 0; c < arity; ++c) {
        out[size_t{c} * s.rows + r] = staging_[size_t{r} * arity + c];
      }
    }
  } else {
    s.arity = kRowMajor;
    s.arity_begin = arities_.size();
    cells_.insert(cells_.end(), staging_.begin(), staging_.end());
    for (uint32_t r = 0; r < s.rows; ++r) {
      arities_.push_back(row_begin_[r + 1] - row_begin_[r]);
    }
  }
  SealSlice(s, rows_ != Rows::kAny);
  staging_.clear();
  row_begin_.assign(1, 0);
  return true;
}

void CaptureBatch::SealSlice(Slice s, bool set) {
  if (!set && s.rows > 1) sets_ = false;
  s.bytes = 8 * uint64_t{s.rows};  // TupleByteSize's row overhead
  s.serialized = kSliceHeaderBytes + kTupleHeaderBytes * s.rows;
  for (const Cell& c : cells(s)) {
    s.bytes += LogicalBytes(c);
    s.serialized += SerializedBytes(c);
  }
  byte_size_ += s.bytes;
  serialized_ += s.serialized;
  num_tuples_ += s.rows;
  slices_.push_back(s);
}

void CaptureBatch::Clear() {
  cells_.clear();
  arities_.clear();
  chars_.clear();
  doubles_.clear();
  slices_.clear();
  byte_size_ = 0;
  serialized_ = 0;
  num_tuples_ = 0;
  sets_ = true;
}

std::span<const Cell> CaptureBatch::cells(const Slice& s) const {
  size_t n = 0;
  if (s.arity == kRowMajor) {
    for (uint32_t a : row_arities(s)) n += a;
  } else {
    n = size_t{s.arity} * s.rows;
  }
  return {cells_.data() + s.begin, n};
}

size_t CaptureBatch::serialized_bytes() const {
  return kLayerHeaderBytes + serialized_;
}

CaptureBatch CaptureBatch::Concat(Superstep step,
                                  std::span<const CaptureBatch> parts,
                                  std::span<const int> only_rels) {
  CaptureBatch out;
  out.step = step;
  // Stable counting sort of (part, slice) by relation.
  int num_rels = 0;
  size_t num_slices = 0, num_cells = 0, num_arities = 0;
  size_t num_chars = 0, num_doubles = 0;
  for (const CaptureBatch& part : parts) {
    for (const Slice& s : part.slices_) num_rels = std::max(num_rels, s.rel + 1);
    num_slices += part.slices_.size();
    num_cells += part.cells_.size();
    num_arities += part.arities_.size();
    num_chars += part.chars_.size();
    num_doubles += part.doubles_.size();
    out.sets_ = out.sets_ && part.sets_;
  }
  std::vector<uint8_t> keep(static_cast<size_t>(num_rels), only_rels.empty());
  for (int rel : only_rels) {
    if (rel >= 0 && rel < num_rels) keep[static_cast<size_t>(rel)] = 1;
  }
  std::vector<size_t> start(static_cast<size_t>(num_rels) + 1, 0);
  for (const CaptureBatch& part : parts) {
    for (const Slice& s : part.slices_) ++start[static_cast<size_t>(s.rel) + 1];
  }
  for (size_t r = 0; r < static_cast<size_t>(num_rels); ++r) {
    start[r + 1] += start[r];
  }
  struct Ref {
    uint32_t part;
    uint32_t slice;
  };
  std::vector<Ref> order(num_slices);
  for (size_t p = 0; p < parts.size(); ++p) {
    const auto& slices = parts[p].slices_;
    for (size_t i = 0; i < slices.size(); ++i) {
      order[start[static_cast<size_t>(slices[i].rel)]++] =
          Ref{static_cast<uint32_t>(p), static_cast<uint32_t>(i)};
    }
  }

  out.slices_.reserve(num_slices);
  out.cells_.reserve(num_cells);
  out.arities_.reserve(num_arities);
  out.chars_.reserve(num_chars);
  out.doubles_.reserve(num_doubles);
  for (const Ref& ref : order) {
    const CaptureBatch& part = parts[ref.part];
    Slice s = part.slices_[ref.slice];
    if (!keep[static_cast<size_t>(s.rel)]) continue;
    const std::span<const Cell> cells = part.cells(s);
    s.begin = out.cells_.size();
    for (Cell c : cells) {
      if (c.tag == Value::Kind::kString) {
        const size_t off = out.chars_.size();
        out.chars_.append(part.AsString(c));
        c.off = off;
      } else if (c.tag == Value::Kind::kDoubleVector) {
        const size_t off = out.doubles_.size();
        const auto vec = part.AsDoubleVector(c);
        out.doubles_.insert(out.doubles_.end(), vec.begin(), vec.end());
        c.off = off;
      }
      out.cells_.push_back(c);
    }
    if (s.arity == kRowMajor) {
      const auto arities = part.row_arities(s);
      s.arity_begin = out.arities_.size();
      out.arities_.insert(out.arities_.end(), arities.begin(), arities.end());
    }
    out.byte_size_ += s.bytes;
    out.serialized_ += s.serialized;
    out.num_tuples_ += s.rows;
    out.slices_.push_back(s);
  }
  return out;
}

CaptureBatch CaptureBatch::FromLayer(const Layer& layer) {
  CaptureBatch out;
  out.step = layer.step;
  for (const LayerSlice& slice : layer.slices) {
    out.BeginSlice(slice.rel, slice.vertex, Rows::kDedup);
    for (const Tuple& t : slice.tuples) {
      for (const Value& v : t) out.AddValue(v);
      out.EndRow();
    }
    out.EndSlice();
  }
  return out;
}

CaptureBatch CaptureBatch::Distinct() const {
  CaptureBatch out;
  out.step = step;
  for (const Slice& s : slices_) {
    out.BeginSlice(s.rel, s.vertex, Rows::kDedup,
                   s.at_step ? Steps::kLayer : Steps::kAny);
    ForEachRow(s, [&out](const CellRow& row) { out.AddRow(row); });
    out.EndSlice();
  }
  return out;
}

Value CaptureBatch::ToValue(const Cell& c) const {
  switch (c.tag) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kInt:
      return Value(c.i);
    case Value::Kind::kDouble:
      return Value(c.d);
    case Value::Kind::kString:
      return Value(std::string(AsString(c)));
    case Value::Kind::kDoubleVector: {
      const auto vec = AsDoubleVector(c);
      return Value(std::vector<double>(vec.begin(), vec.end()));
    }
  }
  return Value();
}

Layer CaptureBatch::ToLayer() const {
  Layer layer;
  layer.step = step;
  for (const Slice& s : slices_) {
    std::vector<Tuple> tuples(s.rows);
    if (s.arity == kRowMajor) {
      const Cell* cell = cells_.data() + s.begin;
      const auto arities = row_arities(s);
      for (uint32_t r = 0; r < s.rows; ++r) {
        tuples[r].reserve(arities[r]);
        for (uint32_t c = 0; c < arities[r]; ++c) {
          tuples[r].push_back(ToValue(*cell++));
        }
      }
    } else {
      for (Tuple& t : tuples) t.resize(s.arity);
      for (uint32_t c = 0; c < s.arity; ++c) {
        const auto col = column(s, c);
        for (uint32_t r = 0; r < s.rows; ++r) tuples[r][c] = ToValue(col[r]);
      }
    }
    layer.Add(s.rel, s.vertex, std::move(tuples));
  }
  return layer;
}

}  // namespace ariadne::storage
