#include "pql/relation.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "common/logging.h"

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

/// The same over a row given as one pointer per column (a probe key).
struct ValuePtrsRow {
  std::span<const Value* const> v;

  size_t size() const { return v.size(); }
  Value::Kind kind(size_t col) const { return v[col]->kind(); }
  int64_t AsInt(size_t col) const { return v[col]->AsInt(); }
  double AsDouble(size_t col) const { return v[col]->AsDouble(); }
  const std::string& AsString(size_t col) const { return v[col]->AsString(); }
  const std::vector<double>& AsDoubleVector(size_t col) const {
    return v[col]->AsDoubleVector();
  }
  size_t Hash(size_t col) const { return v[col]->Hash(); }
};

/// Row hash as stored in RowMeta: TupleHash of the materialized row,
/// combined with the holder, folded.
template <typename Row>
uint32_t RowHash(Holder holder, const Row& row) {
  size_t seed = row.size();
  for (size_t col = 0; col < row.size(); ++col) {
    seed = HashCombine(seed, row.Hash(col));
  }
  return Fold(HashCombine(seed, holder));
}

/// Calls fn(col, j) for the j-th column `col` of `cols`, ascending.
template <typename Fn>
void ForEachColumn(ColumnSet cols, Fn fn) {
  for (size_t j = 0; cols != 0; cols &= cols - 1, ++j) {
    fn(static_cast<size_t>(std::countr_zero(cols)), j);
  }
}

/// Index key hash: the Value::Hash of each key value, combined in column
/// order (a one-column key hashes as its value), then combined with the
/// holder and folded. `hash_of(col, j)` hashes the j-th key column.
template <typename HashOf>
uint32_t KeyHash(Holder holder, ColumnSet cols, HashOf hash_of) {
  size_t seed = 0;
  ForEachColumn(cols, [&](size_t col, size_t j) {
    seed = j == 0 ? hash_of(col, j) : HashCombine(seed, hash_of(col, j));
  });
  return Fold(HashCombine(seed, holder));
}

}  // namespace

size_t CellRow::Hash(size_t col) const {
  const Cell& c = cell(col);
  size_t seed = KindSeed(c.tag);
  switch (c.tag) {
    case Value::Kind::kNull:
      return HashCombine(seed, 0);
    case Value::Kind::kInt:
      return HashCombine(seed, std::hash<int64_t>()(c.i));
    case Value::Kind::kDouble:
      return HashCombine(seed, std::hash<double>()(c.d));
    case Value::Kind::kString:
      return HashCombine(seed, std::hash<std::string_view>()(AsString(col)));
    case Value::Kind::kDoubleVector:
      for (double d : AsDoubleVector(col)) {
        seed = HashCombine(seed, std::hash<double>()(d));
      }
      return seed;
  }
  return seed;
}

Value CellRow::value(size_t col) const {
  const Cell& c = cell(col);
  switch (c.tag) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kInt:
      return Value(c.i);
    case Value::Kind::kDouble:
      return Value(c.d);
    case Value::Kind::kString:
      return Value(std::string(AsString(col)));
    case Value::Kind::kDoubleVector: {
      const std::span<const double> v = AsDoubleVector(col);
      return Value(std::vector<double>(v.begin(), v.end()));
    }
  }
  return Value();
}

bool CellRow::Equals(size_t col, const Value& v) const {
  const Cell& c = cell(col);
  if (c.tag != v.kind()) return false;
  switch (c.tag) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kInt:
      return c.i == v.AsInt();
    case Value::Kind::kDouble:
      return c.d == v.AsDouble();
    case Value::Kind::kString:
      return AsString(col) == v.AsString();
    case Value::Kind::kDoubleVector:
      return std::ranges::equal(AsDoubleVector(col), v.AsDoubleVector());
  }
  return false;
}

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
      return std::ranges::equal(vectors_->items[c.ref],
                                row.AsDoubleVector(col));
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

uint32_t Relation::InternString(std::string_view s) {
  if (strings_ == nullptr) strings_ = std::make_unique<StringPool>();
  StringPool& pool = *strings_;
  auto it = pool.ids.find(s);
  if (it != pool.ids.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(pool.items.size());
  pool.items.emplace_back(s);
  pool.hashes.push_back(std::hash<std::string>()(pool.items.back()));
  pool.ids.emplace(std::string_view(pool.items.back()), id);
  return id;
}

uint32_t Relation::InternDoubleVector(std::span<const double> v) {
  if (vectors_ == nullptr) vectors_ = std::make_unique<VectorPool>();
  VectorPool& pool = *vectors_;
  size_t h = KindSeed(Value::Kind::kDoubleVector);
  for (double d : v) h = HashCombine(h, std::hash<double>()(d));
  auto& candidates = pool.ids[h];
  for (uint32_t id : candidates) {
    if (std::ranges::equal(pool.items[id], v)) return id;
  }
  const uint32_t id = static_cast<uint32_t>(pool.items.size());
  pool.items.emplace_back(v.begin(), v.end());
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
    if (c.tag != Value::Kind::kInt && col < kMaxKeyColumns) {
      non_int_cols_ |= ColumnSetOf(static_cast<int>(col));
    }
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
size_t Relation::FindRowSlot(Holder holder, uint32_t hash,
                             const Row& row) const {
  const size_t mask = dedup_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const uint32_t slot = dedup_[pos];
    if (slot == 0) return pos;
    if (slot == kTombstone) continue;
    const uint32_t id = slot - 1;
    if (hashes_[id] != hash || rows_[id].holder != holder) continue;
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
      dedup_, [](uint32_t slot) { return slot == 0 || slot == kTombstone; },
      [this](uint32_t slot) { return hashes_[slot - 1]; });
}

Relation::HolderSlot& Relation::Slot(Holder holder) {
  if (holder >= holders_.size()) holders_.resize(size_t{holder} + 1);
  return holders_[holder];
}

void Relation::IndexNextRow(ColumnSet cols, ColumnIndex& index) {
  const uint32_t row = static_cast<uint32_t>(index.next.size());
  index.next.push_back(kNoRow);
  if (dead_[row] != 0) return;  // never chained; Probe cannot return it
  const RowView view = row_view(row);
  const Holder holder = rows_[row].holder;
  const uint32_t hash =
      KeyHash(holder, cols, [&](size_t col, size_t) { return view.Hash(col); });
  if ((index.num_keys + 1) * 2 > index.slots.size()) {
    GrowTable(
        index.slots, [](const KeySlot& s) { return s.count == 0; },
        [](const KeySlot& s) { return s.hash; });
  }
  auto same_key = [&](uint32_t head) {
    const Cell* cells = cells_.data() + RowBegin(head);
    bool equal = true;
    ForEachColumn(cols, [&](size_t col, size_t) {
      equal = equal && CellEquals(cells[col], view, col);
    });
    return equal;
  };
  const size_t mask = index.slots.size() - 1;
  size_t pos = hash & mask;
  for (;; pos = (pos + 1) & mask) {
    const KeySlot& s = index.slots[pos];
    if (s.count == 0) break;
    if (s.hash == hash && rows_[s.head].holder == holder && same_key(s.head)) {
      break;
    }
  }
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
  for (const IndexEntry& entry : indexes_) {
    ColumnIndex& index = *entry.index;
    if (!index.built) continue;
    index.built = false;
    index.num_keys = 0;
    std::fill(index.slots.begin(), index.slots.end(), KeySlot{});
    index.next.clear();
  }
}

// ------------------------------------------------------------ mutation

template <typename Row>
bool Relation::InsertRow(Holder holder, const Row& row) {
  const uint32_t hash = RowHash(holder, row);
  if ((rows_.size() + 1) * 2 > dedup_.size()) GrowDedup();
  const size_t pos = FindRowSlot(holder, hash, row);
  if (dedup_[pos] != 0) return false;
  const uint32_t id = static_cast<uint32_t>(rows_.size());
  dedup_[pos] = id + 1;
  EncodeRow(row);
  rows_.push_back(RowMeta{static_cast<uint32_t>(cells_.size()), holder});
  hashes_.push_back(hash);
  dead_.push_back(0);
  holder_next_.push_back(kNoRow);
  HolderSlot& slot = Slot(holder);
  if (slot.rows == 0) {
    slot.head = id;
  } else {
    holder_next_[slot.tail] = id;
  }
  slot.tail = id;
  ++slot.rows;
  ++slot.live;
  ++slot.version;
  byte_size_ += RowByteSize(id);
  ++version_;
  return true;
}

bool Relation::HasIndex(ColumnSet cols) const {
  for (const IndexEntry& entry : indexes_) {
    if (entry.cols == cols) return entry.index->built;
  }
  return false;
}

bool Relation::Insert(Holder holder, std::span<const Value> t) {
  return InsertRow(holder, ValuesRow{t});
}

bool Relation::Insert(Holder holder, const RowView& row) {
  return InsertRow(holder, row);
}

bool Relation::Insert(Holder holder, const CellRow& row) {
  return InsertRow(holder, row);
}

bool Relation::Contains(Holder holder, std::span<const Value> t) const {
  if (holder_size(holder) == 0) return false;
  const ValuesRow row{t};
  return dedup_[FindRowSlot(holder, RowHash(holder, row), row)] != 0;
}

Relation::Bucket Relation::Find(Holder holder,
                                std::span<const Value* const> row) const {
  if (holder_size(holder) == 0) return Bucket();
  const ValuePtrsRow values{row};
  const uint32_t slot =
      dedup_[FindRowSlot(holder, RowHash(holder, values), values)];
  // A bucket of one row never follows its chain.
  return slot == 0 ? Bucket() : Bucket(&holder_next_, slot - 1, 1);
}

Relation::Bucket Relation::Probe(Holder holder, ColumnSet cols,
                                 std::span<const Value* const> key) {
  // One key value per column of `cols`, counted while hashing.
  size_t columns = 0;
  const uint32_t hash = KeyHash(holder, cols, [&](size_t, size_t j) {
    columns = j + 1;
    return j < key.size() ? key[j]->Hash() : 0;
  });
  ARIADNE_CHECK(columns != 0 && columns == key.size());
  ColumnIndex* index = nullptr;
  for (const IndexEntry& entry : indexes_) {
    if (entry.cols == cols) {
      index = entry.index.get();
      break;
    }
  }
  if (index == nullptr) {
    index = indexes_.emplace_back(cols, std::make_unique<ColumnIndex>())
                .index.get();
  }
  index->built = true;
  // Indexes extend lazily: rows inserted since the last probe join now.
  while (index->next.size() < rows_.size()) IndexNextRow(cols, *index);
  if (index->num_keys == 0) return Bucket();
  auto same_key = [&](uint32_t head) {
    const Cell* cells = cells_.data() + RowBegin(head);
    bool equal = true;
    ForEachColumn(cols, [&](size_t col, size_t j) {
      equal = equal && CellEquals(cells[col], ValuesRow{std::span(key[j], 1)},
                                  0);
    });
    return equal;
  };
  const size_t mask = index->slots.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const KeySlot& s = index->slots[pos];
    if (s.count == 0) return Bucket();
    if (s.hash == hash && rows_[s.head].holder == holder && same_key(s.head)) {
      return Bucket(&index->next, s.head, s.count);
    }
  }
}

Relation::Bucket Relation::HolderRows(Holder holder) const {
  if (holder >= holders_.size() || holders_[holder].rows == 0) return Bucket();
  const HolderSlot& slot = holders_[holder];
  return Bucket(&holder_next_, slot.head, slot.rows);
}

void Relation::KillRow(uint32_t i) {
  const size_t mask = dedup_.size() - 1;
  for (size_t pos = hashes_[i] & mask;; pos = (pos + 1) & mask) {
    if (dedup_[pos] == i + 1) {
      dedup_[pos] = kTombstone;
      break;
    }
  }
  dead_[i] = 1;
  ++dead_rows_;
  --holders_[rows_[i].holder].live;
  byte_size_ -= RowByteSize(i);
}

void Relation::KillHolder(Holder holder) {
  if (holder_size(holder) == 0) return;
  for (uint32_t row : HolderRows(holder)) {
    if (dead_[row] == 0) KillRow(row);
  }
  BumpKillGen(holder);
}

void Relation::KillHolderIf(Holder holder,
                            const std::function<bool(const RowView&)>& pred) {
  if (holder_size(holder) == 0) return;
  for (uint32_t row : HolderRows(holder)) {
    if (dead_[row] == 0 && pred(row_view(row))) KillRow(row);
  }
  BumpKillGen(holder);
}

void Relation::BumpKillGen(Holder holder) {
  HolderSlot& slot = Slot(holder);
  ++slot.version;
  slot.kill_gen = ++kill_gen_;
  ++version_;
}

bool Relation::HolderHolds(
    Holder holder, const std::unordered_set<Tuple, TupleHash>& tuples) const {
  if (tuples.size() != holder_size(holder)) return false;
  for (const Tuple& t : tuples) {
    if (!Contains(holder, t)) return false;
  }
  return true;
}

bool Relation::ReplaceHolder(Holder holder, std::vector<Tuple> tuples) {
  // Deduplicate the input so the no-change check compares sets. The set's
  // iteration order is the new row order.
  std::unordered_set<Tuple, TupleHash> incoming(tuples.begin(), tuples.end());
  if (HolderHolds(holder, incoming)) return false;
  for (uint32_t row : HolderRows(holder)) {
    if (dead_[row] == 0) KillRow(row);
  }
  BumpKillGen(holder);
  for (const Tuple& t : incoming) Insert(holder, t);
  return true;
}

void Relation::RebuildDedupAndChains() {
  std::fill(dedup_.begin(), dedup_.end(), 0);
  const size_t mask = dedup_.size() - 1;
  for (HolderSlot& slot : holders_) {
    slot.rows = 0;
    slot.live = 0;
  }
  holder_next_.assign(rows_.size(), kNoRow);
  for (size_t id = 0; id < rows_.size(); ++id) {
    size_t pos = hashes_[id] & mask;
    while (dedup_[pos] != 0) pos = (pos + 1) & mask;
    dedup_[pos] = static_cast<uint32_t>(id) + 1;
    HolderSlot& slot = holders_[rows_[id].holder];
    if (slot.rows == 0) {
      slot.head = static_cast<uint32_t>(id);
    } else {
      holder_next_[slot.tail] = static_cast<uint32_t>(id);
    }
    slot.tail = static_cast<uint32_t>(id);
    ++slot.rows;
    ++slot.live;
  }
}

std::vector<uint32_t> Relation::Compact() {
  // Kept rows slide down over dead ones. A row's cells only ever move to
  // lower offsets, so each row is read before anything overwrites it.
  const size_t n = rows_.size();
  std::vector<uint32_t> remap(n + 1);
  uint32_t kept = 0;
  uint32_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    remap[i] = kept;
    if (dead_[i] != 0) continue;
    const uint32_t begin = RowBegin(i), end = rows_[i].end;
    if (out != begin) {
      std::copy(cells_.begin() + begin, cells_.begin() + end,
                cells_.begin() + out);
    }
    out += end - begin;
    hashes_[kept] = hashes_[i];
    rows_[kept++] = RowMeta{out, rows_[i].holder};
  }
  remap[n] = kept;
  cells_.resize(out);
  rows_.resize(kept);
  hashes_.resize(kept);
  dead_.assign(kept, 0);
  dead_rows_ = 0;
  RebuildDedupAndChains();
  ResetIndexes();
  return remap;
}

std::vector<std::string> Relation::ToSortedStrings() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (size_t i = 0; i < end_row(); ++i) {
    if (alive(i)) out.push_back(TupleToString(TupleAt(i)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ariadne
