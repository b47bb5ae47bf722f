#ifndef ARIADNE_STORAGE_LAYER_H_
#define ARIADNE_STORAGE_LAYER_H_

#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "engine/types.h"
#include "pql/relation.h"

namespace ariadne {

/// Schema entry of a stored provenance relation.
struct StoredRelation {
  std::string name;
  int arity = 0;
};

/// All tuples one vertex contributed to one relation within a layer.
struct LayerSlice {
  int rel = 0;  ///< index into ProvenanceStore schema
  VertexId vertex = 0;
  std::vector<Tuple> tuples;
};

/// One layer of the provenance graph (Definition 5.1): everything captured
/// during one superstep, in the compact per-vertex representation, as
/// Tuples. Stored layers are storage::CaptureBatch cells
/// (storage/capture_batch.h) from capture through pages to evaluation; a
/// Layer is their Tuple form for Tuple readers (CaptureBatch::ToLayer) and
/// writers (CaptureBatch::FromLayer), and the form of the static segment.
struct Layer {
  Superstep step = 0;
  std::vector<LayerSlice> slices;
  size_t byte_size = 0;

  void Add(int rel, VertexId vertex, std::vector<Tuple> tuples);
};

/// Row-major layer serialization: the static segment of an APV2 store
/// image, and the uncompressed baseline that the storage stats'
/// compression ratio is measured against. Spill files and dynamic layers
/// use the page codec (storage/page.h) instead.
void SerializeLayer(const Layer& layer, BinaryWriter& writer);
Result<Layer> DeserializeLayer(BinaryReader& reader);

}  // namespace ariadne

#endif  // ARIADNE_STORAGE_LAYER_H_
