#ifndef FACTORML_NN_TRAINERS_H_
#define FACTORML_NN_TRAINERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/report.h"
#include "join/normalized_relations.h"
#include "la/kernels.h"
#include "nn/mlp.h"
#include "storage/buffer_pool.h"

namespace factorml::nn {

/// Options shared by the three NN training algorithms. The dataset must
/// carry a target (rel.has_target). All three algorithms perform the same
/// sequence of mini-batch gradient updates (batches are whole FK1-rid
/// groups planned identically; see join/batch_plan.h), so their trained
/// parameters agree up to floating-point reordering.
struct NnOptions {
  std::vector<size_t> hidden = {50};  // hidden layer widths (nh first)
  Activation activation = Activation::kSigmoid;
  int epochs = 10;                    // the paper trains for 10 epochs
  double learning_rate = 0.05;
  size_t batch_rows = 1024;           // mini-batch target size
  bool shuffle = false;               // permute R1's keys per epoch (SGD)
  uint64_t seed = 17;                 // weight init + shuffle seed
  std::string temp_dir = ".";         // where M-NN materializes T
  /// Inverted dropout rate on the hidden activations (0 disables). The
  /// paper notes Dropout after a layer's activation is compatible with the
  /// factorization (Sec. VI-A); the engine draws masks from a stream
  /// seeded by `seed`, so all three algorithms apply identical masks and
  /// keep producing identical parameters.
  double hidden_dropout = 0.0;
  /// Classical momentum coefficient for SGD (0 = plain SGD) and L2 weight
  /// decay on the weights (never the biases). Both are deterministic and
  /// shared by all three algorithms.
  double momentum = 0.0;
  double weight_decay = 0.0;
  /// F-NN extension beyond the paper: accumulate the first-layer R1
  /// gradient per rid group (sum the deltas of a group, then one outer
  /// product per R1 tuple) instead of one outer product per fact tuple.
  /// The paper treats the backward pass as having no reusable computation
  /// (Sec. VI-A3); this flag demonstrates there is some after all — see
  /// bench/ablation_grouped_backward.
  bool grouped_backward = false;
  /// Worker threads for the exec/ morsel-driven runtime (all three
  /// algorithms). The sequence of mini-batch updates is unchanged;
  /// within each batch the first-layer forward partitions over rows and
  /// the W1 gradient over columns (both bit-identical decompositions),
  /// so outputs match the serial run up to the per-worker merge of
  /// attribute-gradient partials. 0 = use exec::DefaultThreads() (the
  /// --threads flag); 1 = the exact bit-for-bit serial path.
  int threads = 0;
  /// Full-pass scheduler knobs (strategy plane, see StrategyOptions):
  /// morsel_rows > 0 switches the pass to fixed deterministically numbered
  /// chunks with a chunk-ordered reduction — results then depend on
  /// morsel_rows but not on threads or stealing; steal lets idle workers
  /// take chunks from busy ones (implies chunking).
  int64_t morsel_rows = 0;
  bool steal = false;
  /// Asynchronous double-buffered page prefetch (strategy plane, see
  /// StrategyOptions): overlap the next morsel's page reads with compute.
  /// Residency-only — results are bit-identical either way; prefetch_depth
  /// is the number of batches read ahead per worker.
  bool prefetch = false;
  int prefetch_depth = 2;
  /// Rid-range shards of the full-pass plane (strategy plane, see
  /// StrategyOptions). The mini-batch (SGD) plane is sequential, so
  /// shards > 1 is rejected with InvalidArgument for this family.
  int shards = 1;
  /// Compute-kernel backend (--kernels): kScalar (default) keeps the
  /// seed's bit-identical loops; kSimd feeds every batch as column strips
  /// and runs the whole epoch step in strip layout through the
  /// runtime-dispatched vector backend (gemm_strip, the vector
  /// activations). Op counts and page I/O are identical; losses agree to
  /// tolerance (summation order and the last ulps of the vector exp), and
  /// are bit-identical across thread counts.
  la::KernelMode kernels = la::KernelMode::kScalar;
  /// Shard execution backend knobs (--shard-backend et al., see
  /// StrategyOptions). Present for option-lifting uniformity only: the
  /// mini-batch plane rejects shards > 1, so neither backend ever
  /// activates for this family.
  std::string shard_backend = "inproc";
  int64_t shard_timeout_ms = 30000;
  std::string shard_transport = "unix";
  std::string shard_worker_path;
  /// ShardDelta wire encoding (--delta-encoding): "dense" (v1 frames) or
  /// "sparse" (v2 zero-run-length frames, decoded bit-identically).
  std::string delta_encoding = "dense";
  /// Non-empty (--checkpoint-dir): CRC-verified checkpoint/restore of the
  /// iteration state; a resumed run is bit-identical to an uninterrupted
  /// one. Empty = checkpointing off.
  std::string checkpoint_dir;
  /// Iterations between checkpoint writes (--checkpoint-every); 0 = every
  /// iteration when checkpoint_dir is set.
  int64_t checkpoint_every = 0;
};

/// Algorithm M-NN: materializes T, then standard BP over T's rows.
Result<Mlp> TrainNnMaterialized(const join::NormalizedRelations& rel,
                                const NnOptions& options,
                                storage::BufferPool* pool,
                                core::TrainReport* report);

/// Algorithm S-NN: the join is recomputed on the fly each epoch; every
/// joined tuple is assembled in memory and fed to standard BP.
Result<Mlp> TrainNnStreaming(const join::NormalizedRelations& rel,
                             const NnOptions& options,
                             storage::BufferPool* pool,
                             core::TrainReport* report);

/// Algorithm F-NN (Sec. VI-A/VI-B): the first-layer pre-activation is
/// factorized as W_S x_S + (W_R1 x_R1 + ... + W_Rq x_Rq + b); the
/// parenthesized partial inner products are computed once per attribute
/// tuple per weight version and reused for all matching fact tuples. The
/// backward pass populates x_S / x_Ri directly from the base relations
/// (the I/O saving of Eq. 29/32) while computing the identical gradient.
Result<Mlp> TrainNnFactorized(const join::NormalizedRelations& rel,
                              const NnOptions& options,
                              storage::BufferPool* pool,
                              core::TrainReport* report);

}  // namespace factorml::nn

#endif  // FACTORML_NN_TRAINERS_H_
