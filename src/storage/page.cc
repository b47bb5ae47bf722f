#include "storage/page.h"

#include <algorithm>
#include <cstring>

namespace ariadne::storage {

namespace {

/// Column encodings. Provenance columns are dominated by vertex ids and
/// superstep counters (small, slowly varying ints) and by payload doubles;
/// the tags below cover those hot shapes and fall back to a tagged
/// per-value encoding for anything else.
enum ColumnTag : uint8_t {
  kColConst = 0,     ///< every row holds the same value (e.g. step columns)
  kColIntDelta = 1,  ///< all ints: zigzag start + zigzag deltas
  kColDouble = 2,    ///< all doubles: raw 8-byte little-endian
  kColMixed = 3,     ///< per-value kind tag + payload
};

enum SliceFormat : uint8_t {
  kSliceColumnar = 0,  ///< uniform arity, column-major runs
  kSliceRowMajor = 1,  ///< mixed arity fallback, row-major tagged values
};

void AppendDoubleRaw(std::string* out, double d) {
  char buf[sizeof(double)];
  std::memcpy(buf, &d, sizeof(double));
  out->append(buf, sizeof(double));
}

using Cell = CaptureBatch::Cell;

void AppendCellTagged(std::string* out, const CaptureBatch& batch,
                      const Cell& c) {
  out->push_back(static_cast<char>(c.tag));
  switch (c.tag) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kInt:
      AppendZigzag(out, c.i);
      break;
    case Value::Kind::kDouble:
      AppendDoubleRaw(out, c.d);
      break;
    case Value::Kind::kString: {
      const std::string_view s = batch.AsString(c);
      AppendVarint(out, s.size());
      out->append(s);
      break;
    }
    case Value::Kind::kDoubleVector: {
      const std::span<const double> vec = batch.AsDoubleVector(c);
      AppendVarint(out, vec.size());
      out->append(reinterpret_cast<const char*>(vec.data()),
                  vec.size() * sizeof(double));
      break;
    }
  }
}

/// Picks the column's tag by Value equality and kinds: constant when
/// every cell equals the first (so 0.0 next to -0.0 is constant and a
/// NaN never is), else all-int deltas, all-double raw, or tagged cells.
void AppendColumn(std::string* out, const CaptureBatch& batch,
                  std::span<const Cell> col) {
  const Cell& first = col[0];
  bool all_equal = true;
  bool all_int = first.tag == Value::Kind::kInt;
  bool all_double = first.tag == Value::Kind::kDouble;
  for (const Cell& c : col) {
    if (all_equal && !batch.CellEquals(c, first)) all_equal = false;
    if (all_int && c.tag != Value::Kind::kInt) all_int = false;
    if (all_double && c.tag != Value::Kind::kDouble) all_double = false;
  }
  if (all_equal) {
    out->push_back(static_cast<char>(kColConst));
    AppendCellTagged(out, batch, first);
    return;
  }
  if (all_int) {
    out->push_back(static_cast<char>(kColIntDelta));
    uint64_t prev = 0;  // wrapping deltas: any two int64s have one
    for (const Cell& c : col) {
      const uint64_t v = static_cast<uint64_t>(c.i);
      AppendZigzag(out, static_cast<int64_t>(v - prev));
      prev = v;
    }
    return;
  }
  if (all_double) {
    out->push_back(static_cast<char>(kColDouble));
    for (const Cell& c : col) AppendDoubleRaw(out, c.d);
    return;
  }
  out->push_back(static_cast<char>(kColMixed));
  for (const Cell& c : col) AppendCellTagged(out, batch, c);
}

void AppendSlice(std::string* out, const CaptureBatch& batch,
                 const CaptureBatch::Slice& slice, VertexId prev_vertex) {
  AppendZigzag(out, slice.vertex - prev_vertex);
  AppendVarint(out, slice.rows);
  if (slice.arity == CaptureBatch::kRowMajor) {
    out->push_back(static_cast<char>(kSliceRowMajor));
    const Cell* cell = batch.cells(slice).data();
    for (uint32_t arity : batch.row_arities(slice)) {
      AppendVarint(out, arity);
      for (uint32_t a = 0; a < arity; ++a) {
        AppendCellTagged(out, batch, *cell++);
      }
    }
    return;
  }
  out->push_back(static_cast<char>(kSliceColumnar));
  AppendVarint(out, slice.arity);
  for (size_t col = 0; col < slice.arity; ++col) {
    AppendColumn(out, batch, batch.column(slice, col));
  }
}

/// The pools a decoded cell's payload is appended to.
struct Pools {
  std::string& chars;
  std::vector<double>& doubles;
};

/// Reads one tagged value into `out`, its payload appended to `pools`.
Status ReadCellTagged(ByteReader& reader, Pools pools, Cell* out) {
  ARIADNE_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadByte());
  Cell c;
  switch (static_cast<Value::Kind>(kind)) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kInt: {
      ARIADNE_ASSIGN_OR_RETURN(int64_t v, reader.ReadZigzag());
      c.i = v;
      break;
    }
    case Value::Kind::kDouble:
      ARIADNE_RETURN_NOT_OK(reader.ReadRaw(&c.d, sizeof(double)));
      break;
    case Value::Kind::kString: {
      ARIADNE_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
      if (n > reader.remaining()) {
        return Status::OutOfRange("string length " + std::to_string(n) +
                                  " exceeds payload");
      }
      c.off = pools.chars.size();
      c.len = static_cast<uint32_t>(n);
      pools.chars.resize(c.off + n);
      ARIADNE_RETURN_NOT_OK(reader.ReadRaw(pools.chars.data() + c.off, n));
      break;
    }
    case Value::Kind::kDoubleVector: {
      ARIADNE_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
      if (n > reader.remaining() / sizeof(double)) {
        return Status::OutOfRange("vector length " + std::to_string(n) +
                                  " exceeds payload");
      }
      c.off = pools.doubles.size();
      c.len = static_cast<uint32_t>(n);
      pools.doubles.resize(c.off + n);
      ARIADNE_RETURN_NOT_OK(
          reader.ReadRaw(pools.doubles.data() + c.off, n * sizeof(double)));
      break;
    }
    default:
      return Status::ParseError("unknown value kind tag " +
                                std::to_string(kind));
  }
  c.tag = static_cast<Value::Kind>(kind);
  *out = c;
  return Status::OK();
}

/// Reads one encoded column of `n` rows into `col[0, n)`.
Status ReadColumn(ByteReader& reader, Pools pools, Cell* col, size_t n) {
  ARIADNE_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadByte());
  switch (tag) {
    case kColConst: {
      Cell c;
      ARIADNE_RETURN_NOT_OK(ReadCellTagged(reader, pools, &c));
      std::fill(col, col + n, c);
      return Status::OK();
    }
    case kColIntDelta: {
      uint64_t prev = 0;  // wrapping, as the encoder's deltas
      for (size_t i = 0; i < n; ++i) {
        ARIADNE_ASSIGN_OR_RETURN(int64_t delta, reader.ReadZigzag());
        prev += static_cast<uint64_t>(delta);
        col[i].tag = Value::Kind::kInt;
        col[i].i = static_cast<int64_t>(prev);
      }
      return Status::OK();
    }
    case kColDouble: {
      for (size_t i = 0; i < n; ++i) {
        col[i].tag = Value::Kind::kDouble;
        ARIADNE_RETURN_NOT_OK(reader.ReadRaw(&col[i].d, sizeof(double)));
      }
      return Status::OK();
    }
    case kColMixed: {
      for (size_t i = 0; i < n; ++i) {
        ARIADNE_RETURN_NOT_OK(ReadCellTagged(reader, pools, &col[i]));
      }
      return Status::OK();
    }
    default:
      return Status::ParseError("unknown column tag " + std::to_string(tag));
  }
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendI64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void AppendZigzag(std::string* out, int64_t v) {
  AppendVarint(out, (static_cast<uint64_t>(v) << 1) ^
                        static_cast<uint64_t>(v >> 63));
}

uint64_t Fnv1a(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Checksum64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ull ^ (data.size() * 0x9e3779b97f4a7c15ull);
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

void AppendCheckedFrame(std::string_view payload, std::string* out) {
  const uint64_t len = payload.size();
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(payload);
  const uint64_t sum = Checksum64(payload);
  out->append(reinterpret_cast<const char*>(&sum), sizeof(sum));
}

Result<std::string_view> ParseCheckedFrame(std::string_view data,
                                           size_t* offset) {
  const size_t start = *offset;
  if (start > data.size() ||
      data.size() - start < kCheckedFrameOverhead) {
    return Status::ParseError("truncated frame header at byte " +
                              std::to_string(start));
  }
  uint64_t len;
  std::memcpy(&len, data.data() + start, sizeof(len));
  if (len > data.size() - start - kCheckedFrameOverhead) {
    return Status::ParseError("frame length " + std::to_string(len) +
                              " at byte " + std::to_string(start) +
                              " exceeds remaining bytes");
  }
  const std::string_view payload = data.substr(start + 8, len);
  uint64_t want;
  std::memcpy(&want, data.data() + start + 8 + len, sizeof(want));
  if (Checksum64(payload) != want) {
    return Status::ParseError("frame checksum mismatch at byte " +
                              std::to_string(start));
  }
  *offset = start + kCheckedFrameOverhead + len;
  return payload;
}

Result<uint64_t> ByteReader::ReadVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= size_) {
      return Status::OutOfRange("varint runs past end of payload");
    }
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return Status::ParseError("varint longer than 10 bytes");
}

Result<int64_t> ByteReader::ReadZigzag() {
  ARIADNE_ASSIGN_OR_RETURN(uint64_t v, ReadVarint());
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

Result<uint8_t> ByteReader::ReadByte() {
  if (pos_ >= size_) return Status::OutOfRange("read past end of payload");
  return static_cast<uint8_t>(data_[pos_++]);
}

Status ByteReader::ReadRaw(void* p, size_t n) {
  if (n > remaining()) {
    return Status::OutOfRange("raw read past end of payload");
  }
  if (n == 0) return Status::OK();  // `p` may be an empty vector's null
  std::memcpy(p, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

std::vector<Page> EncodeBatch(const CaptureBatch& batch, size_t page_size) {
  std::vector<Page> pages;
  Page* open = nullptr;
  for (const CaptureBatch::Slice& slice : batch.slices()) {
    const uint32_t rel = static_cast<uint32_t>(slice.rel);
    if (open == nullptr || open->header.rel != rel ||
        open->payload.size() >= page_size) {
      pages.emplace_back();
      open = &pages.back();
      open->header.rel = rel;
      open->header.first_vertex = slice.vertex;
      open->header.last_vertex = slice.vertex;
    }
    // Vertex ids delta-encode against the previous slice of the page;
    // canonical layers are sorted per relation, so deltas stay tiny.
    const VertexId prev =
        open->header.slice_count == 0 ? 0 : open->header.last_vertex;
    AppendSlice(&open->payload, batch, slice, prev);
    open->header.last_vertex = slice.vertex;
    ++open->header.slice_count;
    open->header.raw_bytes += slice.bytes;
  }
  return pages;
}

std::vector<Page> EncodeLayer(const Layer& layer, size_t page_size) {
  return EncodeBatch(CaptureBatch::FromLayer(layer), page_size);
}

Status DecodePage(const Page& page, CaptureBatch* batch) {
  ByteReader reader(page.payload);
  const Pools pools{batch->chars_, batch->doubles_};
  std::vector<Cell>& cells = batch->cells_;
  // A cell stands for at least 8 of the page's logical bytes.
  const size_t need =
      cells.size() + std::min<uint64_t>(page.header.raw_bytes / 8,
                                        page.payload.size() * 64);
  if (need > cells.capacity()) {
    cells.reserve(std::max(need, 2 * cells.capacity()));
  }
  VertexId prev_vertex = 0;
  for (uint32_t s = 0; s < page.header.slice_count; ++s) {
    ARIADNE_ASSIGN_OR_RETURN(int64_t delta, reader.ReadZigzag());
    CaptureBatch::Slice slice;
    slice.rel = static_cast<int>(page.header.rel);
    slice.vertex = prev_vertex + delta;
    prev_vertex = slice.vertex;
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_tuples, reader.ReadVarint());
    // Distinct tuples need at least one varying column, so a tuple costs
    // ~1 payload byte; the x64 slack covers const-heavy slices while
    // still rejecting corrupt counts before they drive allocations.
    if (n_tuples == 0 || n_tuples / 64 > reader.remaining() ||
        n_tuples > 0xffffffffu) {
      return Status::ParseError("slice tuple count " +
                                std::to_string(n_tuples) +
                                " exceeds payload at offset " +
                                std::to_string(reader.pos()));
    }
    slice.rows = static_cast<uint32_t>(n_tuples);
    slice.begin = cells.size();
    ARIADNE_ASSIGN_OR_RETURN(uint8_t format, reader.ReadByte());
    if (format == kSliceRowMajor) {
      slice.arity = CaptureBatch::kRowMajor;
      slice.arity_begin = batch->arities_.size();
      for (uint64_t i = 0; i < n_tuples; ++i) {
        ARIADNE_ASSIGN_OR_RETURN(uint64_t arity, reader.ReadVarint());
        if (arity > reader.remaining()) {
          return Status::ParseError("tuple arity exceeds payload");
        }
        batch->arities_.push_back(static_cast<uint32_t>(arity));
        const size_t row = cells.size();
        cells.resize(row + arity);
        for (uint64_t a = 0; a < arity; ++a) {
          ARIADNE_RETURN_NOT_OK(
              ReadCellTagged(reader, pools, &cells[row + a]));
        }
      }
    } else if (format == kSliceColumnar) {
      ARIADNE_ASSIGN_OR_RETURN(uint64_t arity, reader.ReadVarint());
      if (arity > reader.remaining() ||
          (arity != 0 && n_tuples > (uint64_t{1} << 31) / arity)) {
        return Status::ParseError("slice arity " + std::to_string(arity) +
                                  " exceeds payload at offset " +
                                  std::to_string(reader.pos()));
      }
      slice.arity = static_cast<uint32_t>(arity);
      cells.resize(slice.begin + n_tuples * arity);
      for (uint64_t col = 0; col < arity; ++col) {
        ARIADNE_RETURN_NOT_OK(ReadColumn(
            reader, pools, cells.data() + slice.begin + col * n_tuples,
            n_tuples));
      }
    } else {
      return Status::ParseError("unknown slice format " +
                                std::to_string(format) + " at offset " +
                                std::to_string(reader.pos()));
    }
    batch->SealSlice(slice, /*set=*/false);
  }
  if (!reader.AtEnd()) {
    return Status::ParseError(
        std::to_string(reader.remaining()) +
        " trailing byte(s) after last slice of page payload");
  }
  return Status::OK();
}

void SerializePage(const Page& page, std::string* out) {
  AppendU32(out, kPageMagic);
  AppendU32(out, page.header.rel);
  AppendI64(out, page.header.first_vertex);
  AppendI64(out, page.header.last_vertex);
  AppendU32(out, page.header.slice_count);
  AppendU32(out, static_cast<uint32_t>(page.payload.size()));
  AppendU64(out, page.header.raw_bytes);
  AppendU64(out, Fnv1a(page.payload));
  out->append(page.payload);
}

Result<Page> ParsePage(std::string_view data, size_t* offset) {
  const size_t start = *offset;
  auto at = [&](const char* what) {
    return Status::ParseError(std::string(what) + " at offset " +
                              std::to_string(start));
  };
  if (data.size() - start < kPageWireHeaderBytes) {
    return at("truncated page header");
  }
  ByteReader reader(data.data() + start, data.size() - start);
  uint32_t magic, rel, slice_count, payload_bytes;
  int64_t first_vertex, last_vertex;
  uint64_t raw_bytes, checksum;
  (void)reader.ReadRaw(&magic, sizeof(magic));
  (void)reader.ReadRaw(&rel, sizeof(rel));
  (void)reader.ReadRaw(&first_vertex, sizeof(first_vertex));
  (void)reader.ReadRaw(&last_vertex, sizeof(last_vertex));
  (void)reader.ReadRaw(&slice_count, sizeof(slice_count));
  (void)reader.ReadRaw(&payload_bytes, sizeof(payload_bytes));
  (void)reader.ReadRaw(&raw_bytes, sizeof(raw_bytes));
  (void)reader.ReadRaw(&checksum, sizeof(checksum));
  if (magic != kPageMagic) return at("bad page magic");
  if (payload_bytes > reader.remaining()) return at("truncated page payload");
  std::string_view payload(data.data() + start + kPageWireHeaderBytes,
                           payload_bytes);
  if (Fnv1a(payload) != checksum) return at("page checksum mismatch");
  Page page;
  page.header.rel = rel;
  page.header.first_vertex = first_vertex;
  page.header.last_vertex = last_vertex;
  page.header.slice_count = slice_count;
  page.header.raw_bytes = raw_bytes;
  page.payload.assign(payload);
  *offset = start + kPageWireHeaderBytes + payload_bytes;
  return page;
}

}  // namespace ariadne::storage
