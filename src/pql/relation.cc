#include "pql/relation.h"

#include <algorithm>
#include <unordered_set>

namespace ariadne {

namespace {

/// Same mixing step as common/value.cc — cell hashes must keep matching
/// Value::Hash of the materialized values.
size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

size_t KindSeed(Value::Kind kind) { return static_cast<size_t>(kind); }

/// Folds a 64-bit hash into the 32 bits the tables store and probe by
/// (the high half of a Fibonacci multiply, so every input bit counts).
uint32_t Fold(size_t h) {
  h ^= h >> 32;
  return static_cast<uint32_t>((h * 0x9e3779b97f4a7c15ULL) >> 32);
}

/// Doubles an open-addressing table (at least 8 slots), re-placing each
/// occupied slot by its stored hash with linear probing.
template <typename Slot, typename IsEmpty, typename HashOf>
void GrowTable(std::vector<Slot>& table, IsEmpty is_empty, HashOf hash_of) {
  std::vector<Slot> grown(std::max<size_t>(8, table.size() * 2));
  const size_t mask = grown.size() - 1;
  for (const Slot& s : table) {
    if (is_empty(s)) continue;
    size_t pos = hash_of(s) & mask;
    while (!is_empty(grown[pos])) pos = (pos + 1) & mask;
    grown[pos] = s;
  }
  table.swap(grown);
}

/// Column access to a row given as Values (the form tuples enter in),
/// mirroring Relation::RowView so both feed the same insert/compare code.
struct ValuesRow {
  std::span<const Value> v;

  size_t size() const { return v.size(); }
  Value::Kind kind(size_t col) const { return v[col].kind(); }
  int64_t AsInt(size_t col) const { return v[col].AsInt(); }
  double AsDouble(size_t col) const { return v[col].AsDouble(); }
  const std::string& AsString(size_t col) const { return v[col].AsString(); }
  const std::vector<double>& AsDoubleVector(size_t col) const {
    return v[col].AsDoubleVector();
  }
  size_t Hash(size_t col) const { return v[col].Hash(); }
};

/// Row hash as stored in RowMeta: TupleHash of the materialized row,
/// folded.
template <typename Row>
uint32_t RowHash(const Row& row) {
  size_t seed = row.size();
  for (size_t col = 0; col < row.size(); ++col) {
    seed = HashCombine(seed, row.Hash(col));
  }
  return Fold(seed);
}

}  // namespace

size_t TupleHash::operator()(const Tuple& t) const {
  size_t seed = t.size();
  for (const Value& v : t) seed = HashCombine(seed, v.Hash());
  return seed;
}

std::string TupleToString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += t[i].ToString();
  }
  out += ")";
  return out;
}

size_t TupleByteSize(const Tuple& t) {
  size_t bytes = 8;  // row overhead
  for (const Value& v : t) bytes += v.ByteSize();
  return bytes;
}

// ------------------------------------------------------------- RowView

const std::string& Relation::RowView::AsString(size_t col) const {
  return rel_->strings_->items[cells_[col].ref];
}

const std::vector<double>& Relation::RowView::AsDoubleVector(
    size_t col) const {
  return rel_->vectors_->items[cells_[col].ref];
}

Value Relation::RowView::value(size_t col) const {
  return rel_->CellToValue(cells_[col]);
}

bool Relation::RowView::Equals(size_t col, const Value& v) const {
  return rel_->CellEquals(cells_[col], ValuesRow{std::span(&v, 1)}, 0);
}

Tuple Relation::RowView::ToTuple() const {
  Tuple t;
  t.reserve(n_);
  for (size_t i = 0; i < n_; ++i) t.push_back(value(i));
  return t;
}

size_t Relation::RowView::Hash(size_t col) const {
  return rel_->CellHash(cells_[col]);
}

// ----------------------------------------------------- cell primitives

Value Relation::CellToValue(const Cell& c) const {
  switch (c.tag) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kInt:
      return Value(c.i);
    case Value::Kind::kDouble:
      return Value(c.d);
    case Value::Kind::kString:
      return Value(strings_->items[c.ref]);
    case Value::Kind::kDoubleVector:
      return Value(vectors_->items[c.ref]);
  }
  return Value();
}

template <typename Row>
bool Relation::CellEquals(const Cell& c, const Row& row, size_t col) const {
  if (c.tag != row.kind(col)) return false;
  switch (c.tag) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kInt:
      return c.i == row.AsInt(col);
    case Value::Kind::kDouble:
      return c.d == row.AsDouble(col);
    case Value::Kind::kString:
      return strings_->items[c.ref] == row.AsString(col);
    case Value::Kind::kDoubleVector:
      return vectors_->items[c.ref] == row.AsDoubleVector(col);
  }
  return false;
}

size_t Relation::CellHash(const Cell& c) const {
  const size_t seed = KindSeed(c.tag);
  switch (c.tag) {
    case Value::Kind::kNull:
      return HashCombine(seed, 0);
    case Value::Kind::kInt:
      return HashCombine(seed, std::hash<int64_t>()(c.i));
    case Value::Kind::kDouble:
      return HashCombine(seed, std::hash<double>()(c.d));
    case Value::Kind::kString:
      return HashCombine(seed, strings_->hashes[c.ref]);
    case Value::Kind::kDoubleVector:
      return vectors_->hashes[c.ref];
  }
  return seed;
}

size_t Relation::RowByteSize(size_t i) const {
  size_t bytes = 8;  // row overhead, as TupleByteSize
  for (uint32_t c = RowBegin(i); c < rows_[i].end; ++c) {
    const Cell& cell = cells_[c];
    switch (cell.tag) {
      case Value::Kind::kNull:
        bytes += 1;
        break;
      case Value::Kind::kInt:
        bytes += sizeof(int64_t);
        break;
      case Value::Kind::kDouble:
        bytes += sizeof(double);
        break;
      case Value::Kind::kString:
        bytes += sizeof(size_t) + strings_->items[cell.ref].size();
        break;
      case Value::Kind::kDoubleVector:
        bytes += sizeof(size_t) +
                 vectors_->items[cell.ref].size() * sizeof(double);
        break;
    }
  }
  return bytes;
}

uint32_t Relation::InternString(const std::string& s) {
  if (strings_ == nullptr) strings_ = std::make_unique<StringPool>();
  StringPool& pool = *strings_;
  auto it = pool.ids.find(std::string_view(s));
  if (it != pool.ids.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(pool.items.size());
  pool.items.push_back(s);
  pool.hashes.push_back(std::hash<std::string>()(pool.items.back()));
  pool.ids.emplace(std::string_view(pool.items.back()), id);
  return id;
}

uint32_t Relation::InternDoubleVector(const std::vector<double>& v) {
  if (vectors_ == nullptr) vectors_ = std::make_unique<VectorPool>();
  VectorPool& pool = *vectors_;
  size_t h = KindSeed(Value::Kind::kDoubleVector);
  for (double d : v) h = HashCombine(h, std::hash<double>()(d));
  auto& candidates = pool.ids[h];
  for (uint32_t id : candidates) {
    if (pool.items[id] == v) return id;
  }
  const uint32_t id = static_cast<uint32_t>(pool.items.size());
  pool.items.push_back(v);
  pool.hashes.push_back(h);
  candidates.push_back(id);
  return id;
}

template <typename Row>
void Relation::EncodeRow(const Row& row) {
  for (size_t col = 0; col < row.size(); ++col) {
    Cell c;
    c.i = 0;
    c.tag = row.kind(col);
    switch (c.tag) {
      case Value::Kind::kNull:
        break;
      case Value::Kind::kInt:
        c.i = row.AsInt(col);
        break;
      case Value::Kind::kDouble:
        c.d = row.AsDouble(col);
        break;
      case Value::Kind::kString:
        c.ref = InternString(row.AsString(col));
        break;
      case Value::Kind::kDoubleVector:
        c.ref = InternDoubleVector(row.AsDoubleVector(col));
        break;
    }
    cells_.push_back(c);
  }
}

// ------------------------------------------------------ dedup + indexes

template <typename Row>
size_t Relation::FindRowSlot(uint32_t hash, const Row& row) const {
  const size_t mask = dedup_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const uint32_t slot = dedup_[pos];
    if (slot == 0) return pos;
    const uint32_t id = slot - 1;
    if (rows_[id].hash != hash) continue;
    const uint32_t begin = RowBegin(id);
    if (rows_[id].end - begin != row.size()) continue;
    bool equal = true;
    for (size_t col = 0; col < row.size() && equal; ++col) {
      equal = CellEquals(cells_[begin + col], row, col);
    }
    if (equal) return pos;
  }
}

void Relation::GrowDedup() {
  GrowTable(
      dedup_, [](uint32_t slot) { return slot == 0; },
      [this](uint32_t slot) { return rows_[slot - 1].hash; });
}

void Relation::IndexNextRow(ColumnIndex& index, int col) {
  const uint32_t row = static_cast<uint32_t>(index.next.size());
  const RowView view = row_view(row);
  const size_t c = static_cast<size_t>(col);
  const uint32_t hash = Fold(view.Hash(c));
  if ((index.num_keys + 1) * 2 > index.slots.size()) {
    GrowTable(
        index.slots, [](const KeySlot& s) { return s.count == 0; },
        [](const KeySlot& s) { return s.hash; });
  }
  const size_t mask = index.slots.size() - 1;
  size_t pos = hash & mask;
  for (;; pos = (pos + 1) & mask) {
    const KeySlot& s = index.slots[pos];
    if (s.count == 0) break;
    if (s.hash == hash && CellEquals(cells_[RowBegin(s.head) + c], view, c)) {
      break;
    }
  }
  index.next.push_back(kNoRow);
  KeySlot& s = index.slots[pos];
  if (s.count == 0) {
    s = KeySlot{hash, row, row, 1};
    ++index.num_keys;
  } else {
    index.next[s.tail] = row;
    s.tail = row;
    ++s.count;
  }
}

void Relation::ResetIndexes() {
  for (ColumnIndex& index : indexes_) {
    if (!index.built) continue;
    index.built = false;
    index.num_keys = 0;
    std::fill(index.slots.begin(), index.slots.end(), KeySlot{});
    index.next.clear();
  }
}

// ------------------------------------------------------------ mutation

template <typename Row>
bool Relation::InsertRow(const Row& row) {
  const uint32_t hash = RowHash(row);
  if ((rows_.size() + 1) * 2 > dedup_.size()) GrowDedup();
  const size_t pos = FindRowSlot(hash, row);
  if (dedup_[pos] != 0) return false;
  const uint32_t id = static_cast<uint32_t>(rows_.size());
  EncodeRow(row);
  rows_.push_back(RowMeta{static_cast<uint32_t>(cells_.size()), hash});
  dedup_[pos] = id + 1;
  byte_size_ += RowByteSize(id);
  ++version_;
  return true;
}

bool Relation::Insert(std::span<const Value> t) {
  return InsertRow(ValuesRow{t});
}

bool Relation::Insert(const RowView& row) { return InsertRow(row); }

bool Relation::Contains(std::span<const Value> t) const {
  if (rows_.empty()) return false;
  const ValuesRow row{t};
  return dedup_[FindRowSlot(RowHash(row), row)] != 0;
}

Relation::Bucket Relation::Probe(int col, const Value& v) {
  const size_t c = static_cast<size_t>(col);
  if (indexes_.size() <= c) {
    indexes_.resize(std::max(c + 1, static_cast<size_t>(arity_)));
  }
  ColumnIndex& index = indexes_[c];
  index.built = true;
  // Indexes extend lazily: rows inserted since the last probe join now.
  while (index.next.size() < rows_.size()) IndexNextRow(index, col);
  if (index.num_keys == 0) return Bucket();
  const uint32_t hash = Fold(v.Hash());
  const ValuesRow key{std::span(&v, 1)};
  const size_t mask = index.slots.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const KeySlot& s = index.slots[pos];
    if (s.count == 0) return Bucket();
    if (s.hash == hash &&
        CellEquals(cells_[RowBegin(s.head) + static_cast<uint32_t>(col)],
                   key, 0)) {
      return Bucket(this, col, s.head, s.count);
    }
  }
}

bool Relation::ReplaceAll(std::vector<Tuple> tuples) {
  // Deduplicate the input so the no-change check compares sets. The set's
  // iteration order is the new row order.
  std::unordered_set<Tuple, TupleHash> incoming(tuples.begin(), tuples.end());
  if (incoming.size() == size()) {
    bool same = true;
    for (const Tuple& t : incoming) {
      if (!Contains(t)) {
        same = false;
        break;
      }
    }
    if (same) return false;
  }
  Clear();
  for (const Tuple& t : incoming) Insert(t);
  return true;
}

void Relation::RemoveIf(const std::function<bool(const RowView&)>& pred) {
  // Compact in place: kept rows slide down over removed ones. A row's
  // cells only ever move to lower offsets, so each row is read (and
  // handed to `pred`) before anything overwrites it.
  const size_t n = rows_.size();
  size_t kept = 0;
  uint32_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t begin = RowBegin(i), end = rows_[i].end;
    if (pred(row_view(i))) {
      byte_size_ -= RowByteSize(i);
      continue;
    }
    if (out != begin) {
      std::copy(cells_.begin() + begin, cells_.begin() + end,
                cells_.begin() + out);
    }
    out += end - begin;
    rows_[kept++] = RowMeta{out, rows_[i].hash};
  }
  cells_.resize(out);
  rows_.resize(kept);
  // Kept rows are distinct already: re-place them by their stored hash.
  std::fill(dedup_.begin(), dedup_.end(), 0);
  const size_t mask = dedup_.size() - 1;
  for (size_t id = 0; id < kept; ++id) {
    size_t pos = rows_[id].hash & mask;
    while (dedup_[pos] != 0) pos = (pos + 1) & mask;
    dedup_[pos] = static_cast<uint32_t>(id) + 1;
  }
  ResetIndexes();
  ++version_;
  ++epoch_;
}

void Relation::Clear() {
  std::fill(dedup_.begin(), dedup_.end(), 0);
  cells_.clear();
  rows_.clear();
  ResetIndexes();
  byte_size_ = 0;
  ++version_;
  ++epoch_;
}

std::vector<std::string> Relation::ToSortedStrings() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    out.push_back(TupleToString(TupleAt(i)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ariadne
