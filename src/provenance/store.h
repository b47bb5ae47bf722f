#ifndef ARIADNE_PROVENANCE_STORE_H_
#define ARIADNE_PROVENANCE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "engine/types.h"
#include "pql/analysis.h"
#include "pql/relation.h"
#include "storage/layer.h"
#include "storage/layer_store.h"

namespace ariadne {

/// The captured provenance graph. Layers are appended in superstep order
/// during capture; a separate "static" segment holds superstep-independent
/// relations (e.g. the prov-edges copy of paper Query 11).
///
/// Layer storage is delegated to storage::LayerStore, which holds every
/// layer as a column batch (storage::CaptureBatch): with a spill
/// configuration, sealed layers' batches are encoded into compressed
/// columnar pages and written behind by a background flusher (the
/// stand-in for the paper's asynchronous HDFS offload), in-memory batches
/// are evicted under a byte budget, and reads are served batch -> page
/// cache -> disk, optionally restricted to a relation subset. The static
/// segment stays a Layer.
class ProvenanceStore {
 public:
  ProvenanceStore() : layers_(std::make_unique<storage::LayerStore>()) {}

  ProvenanceStore(const ProvenanceStore&) = delete;
  ProvenanceStore& operator=(const ProvenanceStore&) = delete;
  ProvenanceStore(ProvenanceStore&&) = default;
  ProvenanceStore& operator=(ProvenanceStore&&) = default;

  // ---- Schema ----

  /// Registers (or finds) a stored relation; returns its id.
  int AddRelation(const std::string& name, int arity);
  int RelId(const std::string& name) const;  ///< -1 if absent
  const std::vector<StoredRelation>& schema() const { return schema_; }

  /// Schema view for Analyze() of offline queries.
  StoreSchema ToStoreSchema() const;

  /// Whether relation `rel` is step-pure: it is named after a built-in EDB
  /// with a step column (superstep, value, evolution, send-message,
  /// receive-message), and each of its slices in every layer is columnar
  /// with the relation's arity, holds the layer's step in that column in
  /// every row, and is the only slice of its (vertex, relation) in the
  /// layer. Offline runs read such a relation in place (FactView,
  /// DESIGN.md §2.3). Every append keeps the flag: a slice written as
  /// CaptureBatch::Steps::kLayer is taken at its word, and any other has
  /// its step cells checked.
  bool step_pure(int rel) const {
    return rel >= 0 && static_cast<size_t>(rel) < step_cols_.size() &&
           step_cols_[static_cast<size_t>(rel)] >= 0;
  }

  // ---- Building (capture) ----

  /// Enables spilling with default storage options: layers beyond
  /// `budget_bytes` of decoded bytes go to `dir` as compressed pages.
  /// Existing layers are flushed before the call returns.
  Status EnableSpill(std::string dir, size_t budget_bytes);

  /// Full-control variant of EnableSpill (thread count, page size,
  /// write-behind bound).
  Status ConfigureStorage(storage::LayerStoreOptions options);
  bool spill_enabled() const { return layers_->spill_enabled(); }

  Layer& static_layer() { return static_layer_; }

  /// Seals the layer for superstep `num_layers()`. With spill enabled the
  /// encode+write happens on the background flusher, so the superstep
  /// barrier is not held up (bounded by the write-behind backpressure).
  /// Capture appends its column batch; AppendLayer takes a layer of
  /// Tuples (tests, tools). Either way the store keeps every slice as a
  /// set: one not known to be one (CaptureBatch::sets) keeps the first
  /// copy of a repeated row.
  Status AppendBatch(storage::CaptureBatch batch);
  Status AppendLayer(Layer layer);

  /// Waits for all background writes to hit disk and re-enforces the
  /// memory budget; returns the first flush error (sticky). Call after
  /// capture and before relying on SpilledLayerCount or spill files.
  Status Flush();

  // ---- Reading ----

  int num_layers() const { return layers_->num_layers(); }

  /// The column batch of superstep `step`, loading it from spill if
  /// necessary: the read format of layered, naive and served evaluation.
  /// Only the relations in `rels` are materialized (empty = all) — pages
  /// of other relations are never read or decoded. May return a relation
  /// superset when the full layer is already in memory. The shared_ptr
  /// keeps the data alive independently of the store's eviction
  /// decisions. Const and thread-safe: any number of concurrent readers
  /// (the serve scheduler's queries) may call this on one store.
  Result<std::shared_ptr<const storage::CaptureBatch>> GetLayerBatch(
      int step, const std::vector<int>& rels) const;

  /// GetLayerBatch as a layer of Tuples (ToLayer), for Tuple readers.
  Result<std::shared_ptr<const Layer>> GetLayerRelations(
      int step, const std::vector<int>& rels) const;

  /// Asynchronous hint that `step` (restricted to `rels`) is about to be
  /// read. Layered evaluation issues these direction-aware. Best-effort.
  void PrefetchLayer(int step, const std::vector<int>& rels) const;

  const Layer& static_data() const { return static_layer_; }

  /// Logical provenance size in bytes (resident + spilled + static) — the
  /// quantity in paper Tables 3 and 4.
  size_t TotalBytes() const;
  size_t InMemoryBytes() const;
  int64_t TotalTuples() const;
  int SpilledLayerCount() const { return layers_->SpilledCount(); }

  /// Flusher / page-cache / read-path counters of the storage subsystem.
  storage::StorageStats storage_stats() const { return layers_->stats(); }

  /// Serializes the whole store (schema + static + layers) / reloads it.
  /// Writes the page-compressed "APV2" image; the bytes are identical for
  /// any spill configuration or engine thread count.
  Status SaveToFile(const std::string& path) const;
  static Result<ProvenanceStore> LoadFromFile(const std::string& path);

  /// Writes layer `step`'s image record: its step, page count and the
  /// serialized pages at the default page size (so the bytes do not
  /// depend on the spill configuration). APV2 images and checkpoint
  /// segments are sequences of these records.
  Status WriteLayerRecord(int step, BinaryWriter& w) const;

  /// The framed APV2 image as bytes / its inverse. SaveToFile and
  /// LoadFromFile are thin wrappers; checkpoints embed the image bytes in
  /// the engine's program-state blob (`origin` names the byte source in
  /// parse errors, the way LoadFromFile uses the path).
  Result<std::string> SerializeToString() const;
  static Result<ProvenanceStore> LoadFromBytes(std::string data,
                                               const std::string& origin);

  // ---- Degraded capture (DESIGN.md §2.4) ----

  /// Records that capture stopped being complete at `at_step`: from that
  /// superstep on, only `surviving_rels` (store relation ids; empty =
  /// capture fully off) keep being captured. Persisted in the APV2 image
  /// (header flags bit 0), so eval refusal survives save/load.
  void MarkDegraded(Superstep at_step, std::vector<int> surviving_rels,
                    std::string reason);
  bool degraded() const { return degraded_at_ >= 0; }
  Superstep degraded_at() const { return degraded_at_; }
  const std::vector<int>& surviving_relations() const {
    return surviving_rels_;
  }
  const std::string& degraded_reason() const { return degraded_reason_; }

  /// Storage-layer half of degradation: permanently stop spilling and
  /// keep unflushed layers resident (forwarded to LayerStore).
  void EnterStorageDegradedMode() { layers_->EnterDegradedMode(); }
  Status storage_flush_error() const { return layers_->flush_error(); }

 private:
  /// Clears step_pure for the relations `batch` breaks it for.
  void NoteStepPurity(const storage::CaptureBatch& batch);

  std::vector<StoredRelation> schema_;
  /// Per relation: its step column while it is step-pure, else -1.
  std::vector<int> step_cols_;
  Layer static_layer_;
  /// unique_ptr keeps ProvenanceStore movable: background flush tasks
  /// hold a LayerStore `this`, which therefore must not move.
  std::unique_ptr<storage::LayerStore> layers_;
  /// Degraded-capture metadata; degraded_at_ < 0 means a complete capture.
  Superstep degraded_at_ = -1;
  std::vector<int> surviving_rels_;
  std::string degraded_reason_;
};

}  // namespace ariadne

#endif  // ARIADNE_PROVENANCE_STORE_H_
