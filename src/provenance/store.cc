#include "provenance/store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/serialize.h"
#include "storage/page.h"

namespace ariadne {

namespace {

constexpr uint32_t kStoreMagicV2 = 0x41505632;  ///< page-compressed image

/// Bytes before the checksummed body of an APV2 image:
/// [u32 magic][u32 flags][u64 fnv1a(body)].
constexpr size_t kV2HeaderBytes = 4 + 4 + 8;

/// Header flags bit 0: the image holds a *degraded* capture — the body
/// starts with a degraded-metadata section (see SerializeToString) and
/// layered eval refuses full-history queries over the loaded store.
constexpr uint32_t kV2FlagDegraded = 1u;

/// The step column of a relation named after a built-in EDB that a layer
/// stores (not a static or transient one), or -1.
int StepColumnOf(const std::string& name) {
  const EdbSchema* edb = Catalog::Default().Find(name);
  if (edb == nullptr || IsStaticEdb(edb->kind) || IsTransientEdb(edb->kind)) {
    return -1;
  }
  return EdbStepColumn(edb->kind).value_or(-1);
}

}  // namespace

void ProvenanceStore::MarkDegraded(Superstep at_step,
                                   std::vector<int> surviving_rels,
                                   std::string reason) {
  if (degraded()) return;  // first degradation wins; it names the cause
  degraded_at_ = at_step;
  surviving_rels_ = std::move(surviving_rels);
  degraded_reason_ = std::move(reason);
}

int ProvenanceStore::AddRelation(const std::string& name, int arity) {
  const int existing = RelId(name);
  if (existing >= 0) return existing;
  schema_.push_back(StoredRelation{name, arity});
  const int step_col = StepColumnOf(name);
  step_cols_.push_back(step_col < arity ? step_col : -1);
  return static_cast<int>(schema_.size() - 1);
}

int ProvenanceStore::RelId(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

StoreSchema ProvenanceStore::ToStoreSchema() const {
  StoreSchema out;
  for (const auto& rel : schema_) {
    out.relations.push_back(StoreSchema::Entry{rel.name, rel.arity});
  }
  return out;
}

Status ProvenanceStore::EnableSpill(std::string dir, size_t budget_bytes) {
  storage::LayerStoreOptions options;
  options.dir = std::move(dir);
  options.mem_budget_bytes = budget_bytes;
  return ConfigureStorage(std::move(options));
}

Status ProvenanceStore::ConfigureStorage(storage::LayerStoreOptions options) {
  return layers_->Configure(std::move(options));
}

Status ProvenanceStore::AppendBatch(storage::CaptureBatch batch) {
  NoteStepPurity(batch);
  return layers_->Append(
      std::make_shared<const storage::CaptureBatch>(std::move(batch)));
}

Status ProvenanceStore::AppendLayer(Layer layer) {
  return AppendBatch(storage::CaptureBatch::FromLayer(layer));
}

void ProvenanceStore::NoteStepPurity(const storage::CaptureBatch& batch) {
  // (relation, vertex) of the slices of still step-pure relations; a
  // batch lists them ascending unless it was put together by hand.
  std::vector<std::pair<int, VertexId>> keys;
  keys.reserve(batch.slices().size());
  bool ascending = true;
  for (const storage::CaptureBatch::Slice& s : batch.slices()) {
    if (!step_pure(s.rel)) continue;
    const size_t rel = static_cast<size_t>(s.rel);
    bool pure = s.arity == static_cast<uint32_t>(schema_[rel].arity);
    if (pure && !s.at_step) {
      for (const storage::CaptureBatch::Cell& c :
           batch.column(s, static_cast<size_t>(step_cols_[rel]))) {
        pure = pure && c.tag == Value::Kind::kInt && c.i == batch.step;
      }
    }
    if (!pure) {
      step_cols_[rel] = -1;
      continue;
    }
    ascending = ascending && (keys.empty() || keys.back() < std::pair(s.rel, s.vertex));
    keys.emplace_back(s.rel, s.vertex);
  }
  if (ascending) return;
  std::sort(keys.begin(), keys.end());
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] == keys[i - 1]) step_cols_[static_cast<size_t>(keys[i].first)] = -1;
  }
}

Status ProvenanceStore::Flush() { return layers_->Drain(); }

Result<std::shared_ptr<const storage::CaptureBatch>>
ProvenanceStore::GetLayerBatch(int step, const std::vector<int>& rels) const {
  return layers_->Read(step, rels);
}

Result<std::shared_ptr<const Layer>> ProvenanceStore::GetLayerRelations(
    int step, const std::vector<int>& rels) const {
  ARIADNE_ASSIGN_OR_RETURN(std::shared_ptr<const storage::CaptureBatch> batch,
                           GetLayerBatch(step, rels));
  return std::make_shared<const Layer>(batch->ToLayer());
}

void ProvenanceStore::PrefetchLayer(int step,
                                    const std::vector<int>& rels) const {
  layers_->Prefetch(step, rels);
}

size_t ProvenanceStore::TotalBytes() const {
  return static_layer_.byte_size + layers_->TotalBytes();
}

size_t ProvenanceStore::InMemoryBytes() const {
  return static_layer_.byte_size + layers_->InMemoryBytes();
}

int64_t ProvenanceStore::TotalTuples() const {
  int64_t n = 0;
  for (const auto& slice : static_layer_.slices) {
    n += static_cast<int64_t>(slice.tuples.size());
  }
  return n + layers_->TotalTuples();
}

Status ProvenanceStore::SaveToFile(const std::string& path) const {
  ARIADNE_ASSIGN_OR_RETURN(std::string image, SerializeToString());
  return WriteFile(path, image);
}

Status ProvenanceStore::WriteLayerRecord(int step, BinaryWriter& w) const {
  ARIADNE_ASSIGN_OR_RETURN(
      std::vector<storage::Page> pages,
      layers_->EncodePages(step, storage::kDefaultPageSize));
  std::string blob;
  for (const storage::Page& page : pages) {
    storage::SerializePage(page, &blob);
  }
  w.WriteI64(step);
  w.WriteU64(pages.size());
  w.WriteString(blob);
  return Status::OK();
}

Result<std::string> ProvenanceStore::SerializeToString() const {
  BinaryWriter body;
  if (degraded()) {
    // Degraded section comes first (gated by header flags bit 0), so a
    // complete capture's image is byte-for-byte the classic APV2 layout.
    body.WriteI64(degraded_at_);
    body.WriteString(degraded_reason_);
    body.WriteU64(surviving_rels_.size());
    for (int rel : surviving_rels_) body.WriteI64(rel);
  }
  body.WriteU64(schema_.size());
  for (const auto& rel : schema_) {
    body.WriteString(rel.name);
    body.WriteU32(static_cast<uint32_t>(rel.arity));
  }
  SerializeLayer(static_layer_, body);
  const int n_layers = layers_->num_layers();
  body.WriteU64(static_cast<uint64_t>(n_layers));
  for (int step = 0; step < n_layers; ++step) {
    Status written = WriteLayerRecord(step, body);
    if (!written.ok()) {
      return written.WithContext("saving layer " + std::to_string(step));
    }
  }
  BinaryWriter out;
  out.WriteU32(kStoreMagicV2);
  out.WriteU32(degraded() ? kV2FlagDegraded : 0);
  out.WriteU64(storage::Fnv1a(body.data()));
  std::string file = out.MoveData();
  file += body.data();
  return file;
}

namespace {

Result<ProvenanceStore> LoadV2(BinaryReader& reader, const std::string& path,
                               bool degraded) {
  ProvenanceStore store;
  if (degraded) {
    ARIADNE_ASSIGN_OR_RETURN(int64_t at_step, reader.ReadI64());
    ARIADNE_ASSIGN_OR_RETURN(std::string reason, reader.ReadString());
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_surviving, reader.ReadU64());
    if (at_step < 0 || n_surviving > reader.remaining() / 8) {
      return Status::ParseError("bad degraded-capture section in " + path +
                                " at offset " + std::to_string(reader.pos()));
    }
    std::vector<int> surviving;
    surviving.reserve(n_surviving);
    for (uint64_t i = 0; i < n_surviving; ++i) {
      ARIADNE_ASSIGN_OR_RETURN(int64_t rel, reader.ReadI64());
      surviving.push_back(static_cast<int>(rel));
    }
    store.MarkDegraded(static_cast<Superstep>(at_step), std::move(surviving),
                       std::move(reason));
  }
  ARIADNE_ASSIGN_OR_RETURN(uint64_t n_rels, reader.ReadU64());
  if (n_rels > reader.remaining() / 12) {
    return Status::ParseError("relation count " + std::to_string(n_rels) +
                              " exceeds remaining bytes in " + path +
                              " at offset " + std::to_string(reader.pos()));
  }
  for (uint64_t i = 0; i < n_rels; ++i) {
    ARIADNE_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    ARIADNE_ASSIGN_OR_RETURN(uint32_t arity, reader.ReadU32());
    store.AddRelation(name, static_cast<int>(arity));
  }
  {
    auto layer = DeserializeLayer(reader);
    if (!layer.ok()) return layer.status().WithContext(path);
    store.static_layer() = std::move(layer).value();
  }
  ARIADNE_ASSIGN_OR_RETURN(uint64_t n_layers, reader.ReadU64());
  // A layer costs >= 24 bytes (step + page count + blob length).
  if (n_layers > reader.remaining() / 24) {
    return Status::ParseError("layer count " + std::to_string(n_layers) +
                              " exceeds remaining bytes in " + path +
                              " at offset " + std::to_string(reader.pos()));
  }
  for (uint64_t i = 0; i < n_layers; ++i) {
    ARIADNE_ASSIGN_OR_RETURN(int64_t step, reader.ReadI64());
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_pages, reader.ReadU64());
    ARIADNE_ASSIGN_OR_RETURN(std::string blob, reader.ReadString());
    if (n_pages > blob.size() / storage::kPageWireHeaderBytes) {
      return Status::ParseError("page count " + std::to_string(n_pages) +
                                " exceeds layer blob in " + path +
                                " (layer " + std::to_string(i) + ")");
    }
    storage::CaptureBatch batch;
    batch.step = static_cast<Superstep>(step);
    size_t offset = 0;
    for (uint64_t p = 0; p < n_pages; ++p) {
      auto page = storage::ParsePage(blob, &offset);
      if (!page.ok()) {
        return page.status().WithContext(path + " (layer " +
                                         std::to_string(i) + ")");
      }
      Status decoded = storage::DecodePage(*page, &batch);
      if (!decoded.ok()) {
        return decoded.WithContext(path + " (layer " + std::to_string(i) +
                                   ", page " + std::to_string(p) + ")");
      }
    }
    if (offset != blob.size()) {
      return Status::ParseError(std::to_string(blob.size() - offset) +
                                " trailing byte(s) in layer blob of " + path +
                                " (layer " + std::to_string(i) + ")");
    }
    ARIADNE_RETURN_NOT_OK(store.AppendBatch(std::move(batch)));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError(std::to_string(reader.remaining()) +
                              " trailing byte(s) in " + path +
                              " after layer data");
  }
  return store;
}

}  // namespace

Result<ProvenanceStore> ProvenanceStore::LoadFromFile(
    const std::string& path) {
  std::string data;
  {
    auto read = ReadFile(path);
    if (!read.ok()) return read.status();
    data = std::move(read).value();
  }
  return LoadFromBytes(std::move(data), path);
}

Result<ProvenanceStore> ProvenanceStore::LoadFromBytes(
    std::string data, const std::string& origin) {
  if (data.size() < 4) {
    return Status::ParseError("truncated provenance store image " + origin +
                              " (" + std::to_string(data.size()) + " bytes)");
  }
  uint32_t magic;
  std::memcpy(&magic, data.data(), sizeof(magic));
  if (magic != kStoreMagicV2) {
    return Status::ParseError("bad provenance store magic in " + origin);
  }
  if (data.size() < kV2HeaderBytes) {
    return Status::ParseError("truncated provenance store header in " +
                              origin);
  }
  uint32_t flags;
  std::memcpy(&flags, data.data() + 4, sizeof(flags));
  if ((flags & ~kV2FlagDegraded) != 0) {
    return Status::ParseError("unsupported provenance store flags " +
                              std::to_string(flags) + " in " + origin);
  }
  uint64_t checksum;
  std::memcpy(&checksum, data.data() + 8, sizeof(checksum));
  const uint64_t actual = storage::Fnv1a(
      std::string_view(data).substr(kV2HeaderBytes));
  if (actual != checksum) {
    return Status::ParseError("provenance store checksum mismatch in " +
                              origin);
  }
  BinaryReader reader(std::move(data));
  (void)reader.ReadU32();  // magic
  (void)reader.ReadU32();  // flags
  (void)reader.ReadU64();  // checksum, just verified
  return LoadV2(reader, origin, (flags & kV2FlagDegraded) != 0);
}

}  // namespace ariadne
