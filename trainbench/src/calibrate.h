#ifndef TRAINBENCH_CALIBRATE_H_
#define TRAINBENCH_CALIBRATE_H_

#include <vector>

namespace trainbench {

/// Time of one calibration slice on a quiet reference host (a 4-vCPU KVM
/// guest on an Intel Xeon, Sapphire Rapids). Scaled times are expressed in
/// seconds of that host: raw seconds x kReferenceSliceSeconds / slice time.
inline constexpr double kReferenceSliceSeconds = 0.030;

/// Wall and CPU time of one calibration slice or one scaled interval.
struct SliceTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Scales measured times to a fixed host speed. A shared host's speed
/// drifts by up to 2x between minutes (neighbours on the same cores, caches
/// and memory), which moves every training alike. A calibration slice is a
/// fixed amount of work owned by the benchmark, never by the library, so a
/// change to the library cannot move it: an L1-resident multiply-add loop
/// and a streaming read of a buffer larger than the core's L2, on one thread
/// (two threads started together often share one core for the whole slice).
/// Slices run between the timed intervals, and an interval's time divided
/// by the slices around it is its time at a fixed host speed.
class HostSpeed {
 public:
  /// Allocates the slice's buffer and runs the first slice.
  HostSpeed();

  /// Runs the slice after an interval that took `wall_s` (and `cpu_s` of
  /// CPU) and returns both scaled by the mean of the slices around it.
  SliceTime Scale(double wall_s, double cpu_s);

 private:
  SliceTime RunSlice();

  std::vector<double> stream_;
  SliceTime before_;
};

}  // namespace trainbench

#endif  // TRAINBENCH_CALIBRATE_H_
