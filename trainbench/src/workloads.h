#ifndef TRAINBENCH_WORKLOADS_H_
#define TRAINBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/factorml.h"
#include "la/kernels.h"

namespace trainbench {

enum class Family { kGmm, kLogreg, kNn, kKmeans };

/// One benchmark workload: a seeded normalized schema plus one training
/// configuration driven through the public core::Train* entry points.
/// README.md records why each one exists.
struct Workload {
  std::string name;
  Family family = Family::kGmm;
  factorml::core::Algorithm algorithm = factorml::core::Algorithm::kFactorized;
  // Data.
  int64_t s_rows = 0;
  size_t s_feats = 0;
  std::vector<factorml::data::AttributeSpec> attrs;
  bool target = false;
  // Runtime knobs.
  int threads = 1;
  int64_t morsel_rows = 0;
  bool prefetch = false;
  size_t pool_pages = 8192;
  int shards = 1;
  std::string shard_backend = "inproc";
  std::string delta_encoding = "dense";
  // Model: k for GMM/k-means, nh for the NN; iterations (epochs for NN).
  size_t width = 0;
  int iterations = 0;
  size_t batch_rows = 8192;

  /// Metric prefix of the family's model phases ("gmm", ...) and the span
  /// name of its core::Train* entry point.
  std::string family_name;
  std::string train_entry;

  bool mini_batch() const { return family == Family::kNn; }
  /// Joined feature dimension d (target excluded).
  size_t dims() const;
};

/// The workload called `name` at full size, or at `small` size (the
/// self-test scale: every row count divided by 20). Null when unknown.
std::unique_ptr<Workload> FindWorkload(const std::string& name, bool small);
std::vector<std::string> WorkloadNames();

/// Seeded generation of the workload's relations under `dir`, then the
/// load a user's program performs: Table::Open of every relation and
/// BuildIndex through `pool`. Timed pieces go into spans
/// data.GenerateSynthetic, storage.Table::Open and join.BuildIndex.
factorml::Result<factorml::join::NormalizedRelations> SetUp(
    const Workload& w, const std::string& dir, uint64_t seed,
    factorml::storage::BufferPool* pool);

/// Outcome of one training: status, report, wall time of the Train* call
/// and the CPU time (user + sys of this process and of reaped children)
/// it consumed.
struct TrainOutcome {
  factorml::Status status;
  factorml::core::TrainReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One closed-loop training: pool.Clear() as the CLI does, then the
/// family's core::Train* call with the workload's knobs. `threads`
/// overrides the workload's thread count (the parallel-efficiency
/// baseline); 0 keeps it.
TrainOutcome Train(const Workload& w,
                   const factorml::join::NormalizedRelations& rel,
                   factorml::storage::BufferPool* pool,
                   factorml::la::KernelMode kernels,
                   const std::string& temp_dir, int threads = 0);

/// User + system CPU seconds of this process plus its reaped children.
double CpuSeconds();

}  // namespace trainbench

#endif  // TRAINBENCH_WORKLOADS_H_
