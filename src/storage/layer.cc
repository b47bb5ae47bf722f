#include "storage/layer.h"

#include <algorithm>

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

void Layer::Canonicalize() {
  std::stable_sort(slices.begin(), slices.end(),
                   [](const LayerSlice& a, const LayerSlice& b) {
                     if (a.rel != b.rel) return a.rel < b.rel;
                     return a.vertex < b.vertex;
                   });
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

size_t SerializedLayerBytes(const Layer& layer) {
  // Mirrors SerializeLayer and BinaryWriter::WriteValue field by field.
  size_t bytes = sizeof(int64_t) + sizeof(uint64_t);  // step, slice count
  for (const auto& slice : layer.slices) {
    bytes += sizeof(uint32_t) + sizeof(int64_t) + sizeof(uint64_t);
    for (const Tuple& t : slice.tuples) {
      bytes += sizeof(uint32_t);
      for (const Value& v : t) {
        bytes += sizeof(uint8_t);  // kind tag
        switch (v.kind()) {
          case Value::Kind::kNull:
            break;
          case Value::Kind::kInt:
            bytes += sizeof(int64_t);
            break;
          case Value::Kind::kDouble:
            bytes += sizeof(double);
            break;
          case Value::Kind::kString:
            bytes += sizeof(uint64_t) + v.AsString().size();
            break;
          case Value::Kind::kDoubleVector:
            bytes += sizeof(uint64_t) +
                     v.AsDoubleVector().size() * sizeof(double);
            break;
        }
      }
    }
  }
  return bytes;
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
