#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace trainbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder& SpanRecorder::Instance() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = NowNs();
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.run = stack_.empty() ? next_run_++ : spans_[stack_.back()].run;
  spans_.push_back(std::move(rec));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  stack_.pop_back();  // spans close in LIFO order
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name && s.end_ns > 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  // Children of one parent run one after another on this single thread, so
  // their union is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
  }
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return self;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::vector<double> self = SelfSeconds();
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"run\": %d, \"self_us\": %.3f}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - t0) * 1e-3, s.parent, s.run,
                 self[i] * 1e6, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

std::string SpanRecorder::SelfTimeTable() const {
  struct Row {
    int count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::vector<std::string> order;
  std::map<std::string, Row> rows;
  const std::vector<double> self = SelfSeconds();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    auto [it, inserted] = rows.try_emplace(s.name);
    if (inserted) order.push_back(s.name);
    it->second.count += 1;
    it->second.total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    it->second.self += self[i];
  }
  std::ostringstream os;
  for (const auto& name : order) {
    const Row& r = rows[name];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "span %-40s count=%-4d total=%.6fs self=%.6fs\n",
                  name.c_str(), r.count, r.total, r.self);
    os << line;
  }
  return os.str();
}

Span::Span(const std::string& name)
    : start_(Clock::now()), index_(SpanRecorder::Instance().Begin(name)) {}

double Span::Seconds() {
  if (!done_) {
    seconds_ = std::chrono::duration<double>(Clock::now() - start_).count();
    SpanRecorder::Instance().End(index_);
    done_ = true;
  }
  return seconds_;
}

}  // namespace trainbench
