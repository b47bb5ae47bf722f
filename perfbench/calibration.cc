#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <regex>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {
namespace {

// Hash-and-sort over generated strings with the standard library: ordered
// and hashed containers of formatted keys, a stable sort with a lambda
// comparator and a regex parse. Like the program, it is branchy,
// allocation-heavy code with a large instruction footprint, so it slows
// down under the same host contention the program does (a tight loop over
// flat arrays slows down only half as much).
constexpr int kRows = 14000;
constexpr uint64_t kExpectedChecksum = 0xad31cac15ce881f8ULL;

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RunKernel() {
  std::map<std::string, int> counts;
  std::unordered_set<std::string> prefixes;
  std::vector<std::string> rows;
  rows.reserve(kRows);
  uint64_t state = 5;
  for (int i = 0; i < kRows; ++i) {
    const uint64_t r = SplitMix64(state);
    const std::string key = "v" + std::to_string(r % 20000) +
                            ((r & 1) != 0 ? "_send" : "_recv") +
                            std::to_string(i % 21);
    counts[key] += static_cast<int>(r & 7);
    prefixes.insert(key.substr(0, key.size() / 2 + 1));
    rows.push_back(key + "," + std::to_string(r % 997) + "," +
                   std::to_string((r >> 20) % 13));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const std::string& a, const std::string& b) {
                     return a.size() != b.size() ? a.size() < b.size() : a < b;
                   });
  static const std::regex row_re(
      "v([0-9]+)_(send|recv)([0-9]+),([0-9]+),([0-9]+)");
  uint64_t checksum = 0;
  std::smatch match;
  for (size_t i = 0; i < rows.size(); i += 4) {
    if (std::regex_match(rows[i], match, row_re)) {
      checksum = checksum * 31 + static_cast<uint64_t>(match[1].length()) +
                 std::stoull(match[4].str());
    }
  }
  for (const auto& [key, count] : counts) {
    checksum = checksum * 31 + static_cast<uint64_t>(count) +
               prefixes.count(key.substr(0, key.size() / 2 + 1));
  }
  return checksum;
}

uint64_t CalibrationKernel() {
  const uint64_t checksum = RunKernel();
  // A wrong checksum means the kernel itself changed: its timing would
  // no longer be the ruler every recorded metric was normalized with.
  if (checksum != kExpectedChecksum) {
    std::fprintf(stderr, "calibration kernel checksum %016llx != %016llx\n",
                 static_cast<unsigned long long>(checksum),
                 static_cast<unsigned long long>(kExpectedChecksum));
    std::abort();
  }
  return checksum;
}

}  // namespace

double TimeKernel() {
  const auto start = std::chrono::steady_clock::now();
  volatile uint64_t sink = CalibrationKernel();
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
