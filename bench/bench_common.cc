#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <system_error>

#include "common/timer.h"

namespace ariadne::bench {

PageRankOptions BenchPageRankOptions() {
  PageRankOptions options;
  options.iterations = 20;  // the paper's web-graph runs use 20 supersteps
  return options;
}

Status SpillToDisk(ProvenanceStore* store) {
  // One private root per process, created with mkdtemp so concurrent
  // bench processes never share spill files. Its destructor runs at exit,
  // after main's stores are destroyed.
  static struct SpillRoot {
    std::string path =
        (std::filesystem::temp_directory_path() / "ariadne_bench_XXXXXX")
            .string();
    SpillRoot() { ARIADNE_CHECK(mkdtemp(path.data()) != nullptr); }
    ~SpillRoot() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } root;
  static int count = 0;
  const std::string dir = root.path + "/" + std::to_string(++count);
  std::filesystem::create_directories(dir);
  return store->EnableSpill(dir, /*budget_bytes=*/0);
}

int BenchReps() {
  const char* env = std::getenv("ARIADNE_BENCH_REPS");
  if (env != nullptr) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 1;
}

double TimedSeconds(const std::function<void()>& fn) {
  const int reps = BenchReps();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  std::sort(samples.begin(), samples.end());
  size_t begin = 0, end = samples.size();
  if (samples.size() >= 3) {
    ++begin;
    --end;
  }
  const double sum = std::accumulate(samples.begin() + static_cast<ptrdiff_t>(begin),
                                     samples.begin() + static_cast<ptrdiff_t>(end), 0.0);
  return sum / static_cast<double>(end - begin);
}

std::string ConsumeJsonFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < *argc) {
      path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

bool WriteJson(const std::string& path, const JsonObject& top) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "%s\n", top.Dump().c_str());
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace ariadne::bench
