// Bit-flip and truncation fuzz over checkpoint files (DESIGN.md §2.4):
// every corrupted stride must surface as a parse error naming the file
// and offset — never a crash, a hang, or a silent wrong resume. A
// missing checkpoint is the one benign case (fresh start); a fingerprint
// mismatch is a loud error.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/ariadne.h"
#include "recovery/checkpoint.h"

namespace ariadne {
namespace {

class CheckpointCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    auto g = GenerateGrid(4, 4);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
    dir_ = testing::TempDir() + "/checkpoint_corruption";
    std::filesystem::remove_all(dir_);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    ASSERT_FALSE(ec) << ec.message();

    // Produce a real checkpoint: with checkpoint_every=1 the file left on
    // disk after the run is the last barrier's checkpoint.
    auto finished = RunCapture(/*resume=*/false, "checkpoint-fuzz");
    ASSERT_TRUE(finished.ok()) << finished.status().ToString();
    reference_ = std::move(finished).value();
    path_ = recovery::CheckpointPath(dir_);
    auto bytes = ReadFile(path_);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    image_ = std::move(bytes).value();
    ASSERT_GT(image_.size(), 64u);
    segments_path_ = recovery::SegmentsPath(dir_);
    auto segment_bytes = ReadFile(segments_path_);
    ASSERT_TRUE(segment_bytes.ok()) << segment_bytes.status().ToString();
    segments_ = std::move(segment_bytes).value();
    ASSERT_GT(segments_.size(), 64u);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  struct Output {
    RunStats stats;
    std::vector<double> values;
  };

  Result<Output> RunCapture(bool resume, const std::string& fingerprint) {
    SessionOptions options;
    options.engine.checkpoint_every = 1;
    options.engine.checkpoint_dir = dir_;
    options.engine.resume = resume;
    options.engine.checkpoint_fingerprint = fingerprint;
    Session session(&graph_, options);
    ARIADNE_ASSIGN_OR_RETURN(AnalyzedQuery query,
                             session.PrepareOnline(queries::CaptureFull()));
    ProvenanceStore store;
    PageRankProgram pagerank({.iterations = 6});
    Output out;
    ARIADNE_ASSIGN_OR_RETURN(
        out.stats, session.Capture(pagerank, query, &store,
                                   /*retention_window=*/2, &out.values));
    return out;
  }

  /// Writes `bytes` as the checkpoint file and attempts a resumed run.
  Result<Output> ResumeFrom(const std::string& bytes) {
    EXPECT_TRUE(WriteFile(path_, bytes).ok());
    return RunCapture(/*resume=*/true, "checkpoint-fuzz");
  }

  Graph graph_;
  std::string dir_;
  std::string path_;
  std::string image_;
  std::string segments_path_;
  std::string segments_;
  Output reference_;
};

TEST_F(CheckpointCorruptionTest, PristineCheckpointResumes) {
  auto resumed = ResumeFrom(image_);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GE(resumed->stats.resumed_from_step, 1);
  EXPECT_EQ(resumed->values, reference_.values);
}

TEST_F(CheckpointCorruptionTest, EveryBitFlipIsRejectedNamingTheFile) {
  const size_t stride = std::max<size_t>(1, image_.size() / 97);
  int flips = 0;
  for (size_t pos = 0; pos < image_.size(); pos += stride) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupt = image_;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ bit);
      auto resumed = ResumeFrom(corrupt);
      EXPECT_FALSE(resumed.ok())
          << "bit flip at byte " << pos << " resumed silently";
      if (!resumed.ok()) {
        // The error names the checkpoint file and a location in it.
        EXPECT_NE(resumed.status().message().find("checkpoint.bin"),
                  std::string::npos)
            << resumed.status().ToString();
        EXPECT_NE(resumed.status().message().find("offset"),
                  std::string::npos)
            << resumed.status().ToString();
      }
      ++flips;
    }
  }
  EXPECT_GE(flips, 100);
}

TEST_F(CheckpointCorruptionTest, EveryTruncationIsRejected) {
  const size_t stride = std::max<size_t>(1, image_.size() / 61);
  for (size_t cut = 0; cut < image_.size(); cut += stride) {
    auto resumed = ResumeFrom(image_.substr(0, cut));
    EXPECT_FALSE(resumed.ok())
        << "truncation to " << cut << " bytes resumed silently";
    if (!resumed.ok()) {
      EXPECT_NE(resumed.status().message().find("checkpoint.bin"),
                std::string::npos)
          << resumed.status().ToString();
    }
  }
}

TEST_F(CheckpointCorruptionTest, EverySegmentBitFlipIsRejected) {
  // The layer data lives in the store-segments.bin sidecar; every segment
  // is checksummed, so a flip anywhere in the referenced prefix must be a
  // loud error naming the sidecar — never a silent wrong resume.
  EXPECT_TRUE(WriteFile(path_, image_).ok());
  const size_t stride = std::max<size_t>(1, segments_.size() / 97);
  int flips = 0;
  for (size_t pos = 0; pos < segments_.size(); pos += stride) {
    std::string corrupt = segments_;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    EXPECT_TRUE(WriteFile(segments_path_, corrupt).ok());
    auto resumed = RunCapture(/*resume=*/true, "checkpoint-fuzz");
    EXPECT_FALSE(resumed.ok())
        << "segment bit flip at byte " << pos << " resumed silently";
    if (!resumed.ok()) {
      EXPECT_NE(resumed.status().message().find("store-segments.bin"),
                std::string::npos)
          << resumed.status().ToString();
    }
    ++flips;
  }
  EXPECT_GE(flips, 50);
  EXPECT_TRUE(WriteFile(segments_path_, segments_).ok());
}

TEST_F(CheckpointCorruptionTest, TruncatedSegmentsFileIsRejected) {
  EXPECT_TRUE(WriteFile(path_, image_).ok());
  for (size_t cut : {size_t{0}, segments_.size() / 3, segments_.size() - 1}) {
    EXPECT_TRUE(WriteFile(segments_path_, segments_.substr(0, cut)).ok());
    auto resumed = RunCapture(/*resume=*/true, "checkpoint-fuzz");
    EXPECT_FALSE(resumed.ok())
        << "segments truncation to " << cut << " bytes resumed silently";
    if (!resumed.ok()) {
      EXPECT_NE(resumed.status().message().find("store-segments.bin"),
                std::string::npos)
          << resumed.status().ToString();
    }
  }
  EXPECT_TRUE(WriteFile(segments_path_, segments_).ok());
}

TEST_F(CheckpointCorruptionTest, TrailingGarbageIsRejected) {
  auto resumed = ResumeFrom(image_ + std::string(16, '\x5a'));
  EXPECT_FALSE(resumed.ok());
}

TEST_F(CheckpointCorruptionTest, FingerprintMismatchIsALoudError) {
  EXPECT_TRUE(WriteFile(path_, image_).ok());
  auto resumed = RunCapture(/*resume=*/true, "a-different-run-config");
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.status().message().find("fingerprint"), std::string::npos)
      << resumed.status().ToString();
}

TEST_F(CheckpointCorruptionTest, MissingCheckpointIsAFreshStart) {
  std::filesystem::remove(path_);
  auto resumed = RunCapture(/*resume=*/true, "checkpoint-fuzz");
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->stats.resumed_from_step, -1);
  EXPECT_EQ(resumed->values, reference_.values);
}

TEST(OnlineMessageCheckpointTest, NonzeroShipCountIsRejected) {
  // A well-formed record of one message carrying a one-relation ship
  // bundle: checkpointed messages never carry ships, so Read refuses it.
  BinaryWriter w;
  w.WriteI64(7);        // src
  w.WriteDouble(0.25);  // payload
  w.WriteU64(1);        // ship relations
  w.WriteI64(0);        // predicate
  w.WriteU64(1);        // tuples
  w.WriteU64(1);        // arity
  w.WriteValue(Value(int64_t{3}));
  BinaryReader r(w.MoveData());
  auto read = recovery::CheckpointTraits<OnlineMessage<double>>::Read(r);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsParseError()) << read.status().ToString();
}

}  // namespace
}  // namespace ariadne
