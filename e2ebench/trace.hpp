#pragma once
// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (nothing inside src/ is instrumented).  Each
// span has a name, start, end, the span that caused it (parent) and the id of
// the move or request it belongs to; spans of one move share that id.  The
// recorder keeps everything in memory and writes a Chrome trace-event file
// when the run ends.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    int name = 0;
    int parent = -1;          ///< index into spans(), -1 for a root span
    std::uint64_t group = 0;  ///< move or request id shared by related spans
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Opens a span; close it with end(). Spans nest: the innermost open span
  /// is the parent of the next one opened.
  int begin(const std::string& name, std::uint64_t group);
  void end(int span);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const std::string& name(int id) const { return names_.at(id); }

  /// Total duration (seconds) and count of the spans with this name.
  struct Total {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Total total(const std::string& name) const;
  /// Durations (seconds) of every span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time per span: its duration minus the part its child spans cover.
  [[nodiscard]] std::vector<double> self_seconds() const;

  /// Writes the spans as Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  int intern(const std::string& name);

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::uint64_t group)
      : tracer_(tracer), span_(tracer.begin(name, group)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

}  // namespace e2e
