#include <gtest/gtest.h>

#include "provenance/store.h"

namespace ariadne {
namespace {

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.emplace_back(v);
  return t;
}

Layer MakeLayer(Superstep step, int rel, VertexId vertex, int n_tuples) {
  Layer layer;
  layer.step = step;
  std::vector<Tuple> tuples;
  for (int i = 0; i < n_tuples; ++i) {
    tuples.push_back(T({vertex, step, i}));
  }
  layer.Add(rel, vertex, std::move(tuples));
  return layer;
}

TEST(ProvenanceStoreTest, SchemaIsIdempotent) {
  ProvenanceStore store;
  const int a = store.AddRelation("value", 3);
  const int b = store.AddRelation("value", 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.RelId("value"), a);
  EXPECT_EQ(store.RelId("nope"), -1);
  const auto schema = store.ToStoreSchema();
  ASSERT_NE(schema.Find("value"), nullptr);
  EXPECT_EQ(schema.Find("value")->arity, 3);
}

TEST(ProvenanceStoreTest, LayersAppendInOrder) {
  ProvenanceStore store;
  const int rel = store.AddRelation("value", 3);
  ASSERT_TRUE(store.AppendLayer(MakeLayer(0, rel, 1, 2)).ok());
  ASSERT_TRUE(store.AppendLayer(MakeLayer(1, rel, 1, 3)).ok());
  EXPECT_FALSE(store.AppendLayer(MakeLayer(5, rel, 1, 1)).ok());
  EXPECT_EQ(store.num_layers(), 2);
  EXPECT_EQ(store.TotalTuples(), 5);
  EXPECT_GT(store.TotalBytes(), 0u);
  auto layer = store.GetLayerRelations(1, {});
  ASSERT_TRUE(layer.ok());
  EXPECT_EQ((*layer)->step, 1);
  EXPECT_FALSE(store.GetLayerRelations(7, {}).ok());
}

TEST(ProvenanceStoreTest, EmptyTupleSetsAreNotStored) {
  Layer layer;
  layer.Add(0, 3, {});
  EXPECT_TRUE(layer.slices.empty());
  EXPECT_EQ(layer.byte_size, 0u);
}

TEST(ProvenanceStoreTest, LayerSerializationRoundTrip) {
  Layer layer = MakeLayer(4, 2, 9, 5);
  layer.Add(1, 10, {{Value(int64_t{10}), Value(0.5)},
                    {Value(int64_t{10}), Value("txt")}});
  BinaryWriter writer;
  SerializeLayer(layer, writer);
  BinaryReader reader(writer.MoveData());
  auto loaded = DeserializeLayer(reader);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->step, 4);
  ASSERT_EQ(loaded->slices.size(), 2u);
  EXPECT_EQ(loaded->byte_size, layer.byte_size);
  EXPECT_EQ(loaded->slices[1].tuples[1][1], Value("txt"));
}

TEST(ProvenanceStoreTest, SpillAndReload) {
  ProvenanceStore store;
  const int rel = store.AddRelation("value", 3);
  for (Superstep s = 0; s < 6; ++s) {
    ASSERT_TRUE(store.AppendLayer(MakeLayer(s, rel, s, 50)).ok());
  }
  const size_t total = store.TotalBytes();
  // Budget forces most layers out.
  ASSERT_TRUE(store.EnableSpill(testing::TempDir(), total / 4).ok());
  EXPECT_GT(store.SpilledLayerCount(), 0);
  EXPECT_LT(store.InMemoryBytes(), total);
  EXPECT_EQ(store.TotalBytes(), total);  // logical size unchanged
  // Reload a spilled layer; contents identical.
  auto layer = store.GetLayerRelations(0, {});
  ASSERT_TRUE(layer.ok()) << layer.status().ToString();
  ASSERT_EQ((*layer)->slices.size(), 1u);
  EXPECT_EQ((*layer)->slices[0].tuples.size(), 50u);
  EXPECT_EQ((*layer)->slices[0].vertex, 0);
}

TEST(ProvenanceStoreTest, SpillDuringAppend) {
  ProvenanceStore store;
  const int rel = store.AddRelation("value", 3);
  ASSERT_TRUE(store.EnableSpill(testing::TempDir(), 1).ok());  // tiny budget
  for (Superstep s = 0; s < 4; ++s) {
    ASSERT_TRUE(store.AppendLayer(MakeLayer(s, rel, s, 20)).ok());
  }
  // Appends write behind; quiesce before asserting spill state.
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GE(store.SpilledLayerCount(), 3);
  for (int s = 0; s < 4; ++s) {
    auto layer = store.GetLayerRelations(s, {});
    ASSERT_TRUE(layer.ok());
    EXPECT_EQ((*layer)->slices[0].tuples.size(), 20u);
  }
}

TEST(ProvenanceStoreTest, SaveLoadFileRoundTrip) {
  ProvenanceStore store;
  const int rel = store.AddRelation("value", 3);
  store.static_layer().Add(store.AddRelation("prov-edges", 2), 0,
                           {{Value(int64_t{0}), Value(int64_t{1})}});
  ASSERT_TRUE(store.AppendLayer(MakeLayer(0, rel, 7, 3)).ok());
  const std::string path = testing::TempDir() + "/ariadne_store.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto loaded = ProvenanceStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_layers(), 1);
  EXPECT_EQ(loaded->RelId("prov-edges"), store.RelId("prov-edges"));
  EXPECT_EQ(loaded->TotalBytes(), store.TotalBytes());
  EXPECT_EQ(loaded->static_data().slices.size(), 1u);
  EXPECT_FALSE(ProvenanceStore::LoadFromFile(path + ".missing").ok());
}

}  // namespace
}  // namespace ariadne
