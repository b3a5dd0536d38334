#ifndef TRAINBENCH_PROBES_H_
#define TRAINBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/factorml.h"
#include "workloads.h"

namespace trainbench {

/// A measured value and the number of samples behind it.
struct Sample {
  double value = 0.0;
  int samples = 1;
};
using Metrics = std::map<std::string, Sample>;

/// Median of `v` (0 when empty); `v` is taken by value and reordered.
double Median(std::vector<double> v);
/// Median of `v` recorded as a Sample with its count.
Sample MedianSample(const std::vector<double>& v);

/// Layer probes of the traced run. Each calls one module's public entry
/// point `reps` times inside a span and records the median. All of them
/// verify what the call produced and return an error when it is wrong.

/// join.materialize_s / join.materialize_pages (MaterializeJoin into
/// `dir`), join.cursor_rows_per_s (a full natural JoinCursor pass),
/// join.view_load_s (AttributeTableView::Load of every attribute table —
/// one S/F pass's reload) and storage.scan_rows_s / storage.scan_strips_s
/// (TableScanner::Next vs NextStrips over the table the workload's
/// strategy scans: T for M, S otherwise), all at the workload's pool size.
factorml::Status ProbeJoinAndStorage(
    const Workload& w, const factorml::join::NormalizedRelations& rel,
    const std::string& dir, int reps, Metrics* out);

/// pipeline.access_pass_s: a no-op ModelProgram driven through
/// core::pipeline::RunTraining with the workload's strategy and knobs for
/// `passes` passes (epochs on the mini-batch plane) — data delivery with
/// no model work, materialization excluded. On the process backend only
/// the slowest shard's scan counts per pass: its workers scan concurrently.
factorml::Status ProbeAccessPass(const Workload& w,
                                 const factorml::join::NormalizedRelations& rel,
                                 factorml::storage::BufferPool* pool,
                                 const std::string& dir, int passes, int reps,
                                 Metrics* out);

/// la.<kernel>.gflops and la.<kernel>.bytes for every strip kernel the
/// workloads use, called through la::Active() (the simd backend) at the
/// workload's own geometry: d joined columns, 256-row strips, the model
/// width (k or nh) and the R1 domain. Bytes are computed, not measured.
void ProbeKernels(const Workload& w, uint64_t seed, Metrics* out);

/// The kernels ProbeKernels measures, in metric order.
const std::vector<std::string>& ProbedKernels();

/// net.frame_roundtrip_us: EncodeFrame + FrameDecoder::Feed/Next of one
/// `payload_bytes` frame.
factorml::Status ProbeFrameRoundtrip(size_t payload_bytes, uint64_t seed,
                                     Metrics* out);

}  // namespace trainbench

#endif  // TRAINBENCH_PROBES_H_
