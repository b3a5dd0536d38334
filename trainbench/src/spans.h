#ifndef TRAINBENCH_SPANS_H_
#define TRAINBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace trainbench {

/// One recorded interval around a call into a library module. `parent` is
/// the index of the enclosing span (-1 at top level); `run` groups every
/// span caused by one top-level operation (a set-up, a training, a probe).
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

/// In-memory span store of the traced run. The harness is single-threaded,
/// so nesting is a stack. Disabled (the untraced run) it records nothing.
class SpanRecorder {
 public:
  static SpanRecorder& Instance();

  void Enable(bool on) { enabled_ = on; }

  int Begin(const std::string& name);
  void End(int index);

  /// Durations in seconds of every finished span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes the spans as a JSON array to `path` (name, start/end in
  /// microseconds since the first span, parent, run, self time).
  bool WriteJson(const std::string& path) const;

  /// Per-name count, total and self time (duration minus the part of it
  /// covered by child spans), one line per name in first-seen order.
  std::string SelfTimeTable() const;

 private:
  std::vector<double> SelfSeconds() const;

  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  int next_run_ = 0;
};

/// Times one call and, when the recorder is enabled, records it as a span.
/// Seconds() ends the span early (once) and returns its duration.
class Span {
 public:
  explicit Span(const std::string& name);
  ~Span() { Seconds(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double Seconds();

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
  int index_ = -1;
  bool done_ = false;
  double seconds_ = 0.0;
};

}  // namespace trainbench

#endif  // TRAINBENCH_SPANS_H_
