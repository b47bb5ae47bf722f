#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::Begin(std::string name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start = Now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Now();
  // Spans close in LIFO order; tolerate an out-of-order close anyway.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

int Tracer::Add(std::string name, double start, double end, int parent,
                uint64_t request, int lane) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.request = request;
  span.lane = lane;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Arg(int id, std::string key, double value) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].args.emplace_back(std::move(key), value);
}

std::map<std::string, double> Tracer::SelfSeconds(size_t first) const {
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double covered = 0.0;
    auto it = children.find(static_cast<int>(i));
    if (it != children.end()) {
      // Children of a wave overlap (concurrent requests): count the
      // union of their intervals, clipped to the parent.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_start = 0.0, cur_end = -1.0;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    self[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"request\": %llu",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.lane, s.start * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.request));
    for (const auto& [key, value] : s.args) {
      std::fprintf(out, ", \"%s\": %.17g", key.c_str(), value);
    }
    std::fprintf(out, "}}");
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
