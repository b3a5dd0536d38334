#include "calibrate.h"

#include <time.h>

#include <chrono>

namespace trainbench {

namespace {

constexpr size_t kComputeDoubles = 2048;        // 16 KB, L1-resident
constexpr int kComputeReps = 11000;              // about half a slice
constexpr size_t kStreamDoubles = size_t{1} << 19;  // 4 MB, past L2
constexpr int kStreamPasses = 88;                // the other half

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One thread's share of a slice; returns its CPU seconds. The sums feed
/// `sink` so the compiler keeps every pass.
double Work(std::vector<double>* stream, double* sink) {
  const double cpu0 = ThreadCpuSeconds();
  double a[kComputeDoubles], b[kComputeDoubles];
  for (size_t i = 0; i < kComputeDoubles; ++i) {
    a[i] = 1.0 + 1e-9 * static_cast<double>(i);
    b[i] = 1.0 - 1e-9 * static_cast<double>(i);
  }
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (int r = 0; r < kComputeReps; ++r) {
    for (size_t i = 0; i < kComputeDoubles; i += 4) {
      s0 += a[i] * b[i];
      s1 += a[i + 1] * b[i + 1];
      s2 += a[i + 2] * b[i + 2];
      s3 += a[i + 3] * b[i + 3];
    }
    a[static_cast<size_t>(r) % kComputeDoubles] += 1e-12;
  }
  double t = 0.0;
  for (int p = 0; p < kStreamPasses; ++p) {
    for (const double x : *stream) t += x;
    (*stream)[static_cast<size_t>(p)] += 1.0;
  }
  *sink = s0 + s1 + s2 + s3 + t;
  return ThreadCpuSeconds() - cpu0;
}

}  // namespace

HostSpeed::HostSpeed() : stream_(kStreamDoubles, 1.0), before_(RunSlice()) {}

SliceTime HostSpeed::RunSlice() {
  const auto start = std::chrono::steady_clock::now();
  double sink = 0.0;
  SliceTime out;
  out.cpu_s = Work(&stream_, &sink);
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  volatile double keep = sink;
  (void)keep;
  return out;
}

SliceTime HostSpeed::Scale(double wall_s, double cpu_s) {
  const SliceTime after = RunSlice();
  const double slice_wall = 0.5 * (before_.wall_s + after.wall_s);
  const double slice_cpu = 0.5 * (before_.cpu_s + after.cpu_s);
  before_ = after;
  return SliceTime{wall_s * kReferenceSliceSeconds / slice_wall,
                   cpu_s * kReferenceSliceSeconds / slice_cpu};
}

}  // namespace trainbench
