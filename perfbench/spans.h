#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One timed call into a layer of the program.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;  ///< spans of one request share this id
  int lane = 0;          ///< display row in the trace viewer
  std::vector<std::pair<std::string, double>> args;
};

/// In-memory span recorder. Disabled tracers record nothing, so the
/// untraced runs that produce the end-to-end metrics pay only a branch.
/// Single-threaded: the benchmark records every span from its own thread.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  double Now() const;

  /// Opens a span nested in the innermost open one; returns its index
  /// (-1 when disabled).
  int Begin(std::string name, uint64_t request = 0);
  void End(int id);
  /// Adds a finished span with known bounds (e.g. a server-side phase).
  int Add(std::string name, double start, double end, int parent,
          uint64_t request, int lane);
  void Arg(int id, std::string key, double value);

  size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds (duration minus the part its children cover) summed per
  /// span name over spans [first, size()).
  std::map<std::string, double> SelfSeconds(size_t first) const;

  /// Writes Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(std::string key, double value) {
    tracer_.Arg(id_, std::move(key), value);
  }
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
