#include "storage/layer.h"

namespace ariadne {

void Layer::Add(int rel, VertexId vertex, std::vector<Tuple> tuples) {
  if (tuples.empty()) return;
  LayerSlice slice;
  slice.rel = rel;
  slice.vertex = vertex;
  slice.tuples = std::move(tuples);
  for (const Tuple& t : slice.tuples) byte_size += TupleByteSize(t);
  slices.push_back(std::move(slice));
}

void SerializeLayer(const Layer& layer, BinaryWriter& writer) {
  writer.WriteI64(layer.step);
  writer.WriteU64(layer.slices.size());
  for (const auto& slice : layer.slices) {
    writer.WriteU32(static_cast<uint32_t>(slice.rel));
    writer.WriteI64(slice.vertex);
    writer.WriteU64(slice.tuples.size());
    for (const Tuple& t : slice.tuples) {
      writer.WriteU32(static_cast<uint32_t>(t.size()));
      for (const Value& v : t) writer.WriteValue(v);
    }
  }
}

Result<Layer> DeserializeLayer(BinaryReader& reader) {
  Layer layer;
  ARIADNE_ASSIGN_OR_RETURN(int64_t step, reader.ReadI64());
  layer.step = static_cast<Superstep>(step);
  ARIADNE_ASSIGN_OR_RETURN(uint64_t n_slices, reader.ReadU64());
  // Sanity-bound every count against the bytes that could possibly back
  // it, so a corrupt length never drives a multi-gigabyte reserve before
  // the per-element reads fail (a slice costs >= 20 bytes, a tuple >= 4,
  // a value >= 1).
  if (n_slices > reader.remaining() / 20) {
    return Status::ParseError("layer slice count " +
                              std::to_string(n_slices) +
                              " exceeds remaining bytes at offset " +
                              std::to_string(reader.pos()));
  }
  for (uint64_t s = 0; s < n_slices; ++s) {
    ARIADNE_ASSIGN_OR_RETURN(uint32_t rel, reader.ReadU32());
    ARIADNE_ASSIGN_OR_RETURN(int64_t vertex, reader.ReadI64());
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_tuples, reader.ReadU64());
    if (n_tuples > reader.remaining() / 4) {
      return Status::ParseError("slice tuple count " +
                                std::to_string(n_tuples) +
                                " exceeds remaining bytes at offset " +
                                std::to_string(reader.pos()));
    }
    std::vector<Tuple> tuples;
    tuples.reserve(n_tuples);
    for (uint64_t i = 0; i < n_tuples; ++i) {
      ARIADNE_ASSIGN_OR_RETURN(uint32_t arity, reader.ReadU32());
      if (arity > reader.remaining()) {
        return Status::ParseError("tuple arity " + std::to_string(arity) +
                                  " exceeds remaining bytes at offset " +
                                  std::to_string(reader.pos()));
      }
      Tuple t;
      t.reserve(arity);
      for (uint32_t a = 0; a < arity; ++a) {
        ARIADNE_ASSIGN_OR_RETURN(Value v, reader.ReadValue());
        t.push_back(std::move(v));
      }
      tuples.push_back(std::move(t));
    }
    layer.Add(static_cast<int>(rel), vertex, std::move(tuples));
  }
  return layer;
}

}  // namespace ariadne
