#ifndef ARIADNE_STORAGE_PAGE_H_
#define ARIADNE_STORAGE_PAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/capture_batch.h"
#include "storage/layer.h"

namespace ariadne::storage {

/// Target payload size of one page. Pages never mix relations; a slice
/// larger than the target produces one oversized page rather than being
/// split (jumbo pages keep the decode path trivial).
inline constexpr size_t kDefaultPageSize = 64 * 1024;

/// Serialized page magic ("APG1").
inline constexpr uint32_t kPageMagic = 0x31475041;

/// Fixed (decoded) header of one page. A page holds the columnar,
/// varint/delta-compressed tuple runs of ONE relation over a contiguous
/// vertex range of one layer — per-relation reads and vertex-range
/// pruning never touch other relations' pages.
struct PageHeader {
  uint32_t rel = 0;           ///< store relation id of every run in the page
  VertexId first_vertex = 0;  ///< vertex of the first slice
  VertexId last_vertex = 0;   ///< vertex of the last slice
  uint32_t slice_count = 0;
  uint64_t raw_bytes = 0;  ///< logical (TupleByteSize) bytes covered
};

/// One encoded page: header + compressed payload.
struct Page {
  PageHeader header;
  std::string payload;
};

/// Size of the serialized page header (see SerializePage).
inline constexpr size_t kPageWireHeaderBytes =
    4 + 4 + 8 + 8 + 4 + 4 + 8 + 8;

// ---- Varint primitives (LEB128 + zigzag) ----

void AppendVarint(std::string* out, uint64_t v);
void AppendZigzag(std::string* out, int64_t v);

/// FNV-1a checksum used to detect spill-file corruption.
uint64_t Fnv1a(std::string_view data);

/// Word-wise FNV-1a variant: folds 8 bytes per multiply instead of one.
/// ~8x faster than Fnv1a at equivalent corruption-detection strength
/// (any single-bit flip changes the digest); used for the graph backend's
/// raw page frames, whose decode path is a memcpy and must not be
/// bottlenecked by the checksum (DESIGN.md §2.7). Not interchangeable
/// with Fnv1a — the provenance page format keeps the byte-wise digest.
uint64_t Checksum64(std::string_view data);

// ---- Raw checked frames (graph backend page format, DESIGN.md §2.7) ----
//
// A checked frame is [payload_len u64][payload][Checksum64(payload) u64],
// all little-endian. The paged graph backend lays its partition payloads
// out as a sequence of fixed-size checked frames ("graph pages"), so a
// bit flip or truncation anywhere in a spill file surfaces as a Status
// error at read time, mirroring the provenance page format.

/// Serialized overhead of one checked frame (length + checksum words).
inline constexpr size_t kCheckedFrameOverhead = 16;

/// Appends one checked frame holding `payload` to `out`.
void AppendCheckedFrame(std::string_view payload, std::string* out);

/// Parses the checked frame starting at `*offset` in `data`, advancing
/// `*offset` past it. Bounds and checksum failures name the byte offset.
Result<std::string_view> ParseCheckedFrame(std::string_view data,
                                           size_t* offset);

/// Bounds-checked cursor over an encoded payload. All reads fail with
/// OutOfRange instead of walking past the end; `pos()` feeds the
/// offset-bearing error messages of the layer store.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::string_view data)
      : ByteReader(data.data(), data.size()) {}

  Result<uint64_t> ReadVarint();
  Result<int64_t> ReadZigzag();
  Result<uint8_t> ReadByte();
  Status ReadRaw(void* p, size_t n);

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---- Batches <-> pages ----

/// Encodes `batch` into pages of ~`page_size` payload bytes, walking the
/// slices in order and starting a new page whenever the relation changes
/// or the payload target is reached. Columns are encoded straight from
/// the batch's cells. Deterministic: the same slices and page size
/// always produce the same bytes (the byte-identical-save guarantee of
/// the provenance store rests on this).
std::vector<Page> EncodeBatch(const CaptureBatch& batch, size_t page_size);

/// EncodeBatch of `layer`'s slices, in layer order.
std::vector<Page> EncodeLayer(const Layer& layer, size_t page_size);

/// Appends the slices of `page` to `batch` in encoded order, straight
/// into its cells, validating every count against the remaining payload
/// bytes. After an error the batch holds a partial slice: drop it.
Status DecodePage(const Page& page, CaptureBatch* batch);

// ---- Page wire format ----

/// Appends [magic, rel, first_vertex, last_vertex, slice_count,
/// payload_bytes, raw_bytes, fnv1a(payload), payload] to `out`.
void SerializePage(const Page& page, std::string* out);

/// Parses one serialized page starting at `*offset` in `data`, advancing
/// `*offset` past it. Checks the magic, bounds and payload checksum;
/// errors mention the byte offset of the failure.
Result<Page> ParsePage(std::string_view data, size_t* offset);

}  // namespace ariadne::storage

#endif  // ARIADNE_STORAGE_PAGE_H_
