#ifndef FACTORML_NN_TRAINERS_H_
#define FACTORML_NN_TRAINERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/report.h"
#include "core/runtime_options.h"
#include "join/normalized_relations.h"
#include "nn/mlp.h"
#include "storage/buffer_pool.h"

namespace factorml::nn {

/// Options shared by the three NN training algorithms. The dataset must
/// carry a target (rel.has_target). All three algorithms perform the same
/// sequence of mini-batch gradient updates (batches are whole FK1-rid
/// groups planned identically; see join/batch_plan.h), so their trained
/// parameters agree up to floating-point reordering. The runtime knobs
/// (core::RuntimeOptions) apply as for every family, except that the
/// sequential SGD plane rejects shards > 1, so neither shard backend ever
/// activates here; under kernels = kSimd every batch runs the epoch step
/// in strip layout (gemm_strip, the vector activations), bit-identical
/// across thread counts.
struct NnOptions : core::RuntimeOptions {
  NnOptions() { batch_rows = 1024; }  // mini-batch target size

  std::vector<size_t> hidden = {50};  // hidden layer widths (nh first)
  Activation activation = Activation::kSigmoid;
  int epochs = 10;                    // the paper trains for 10 epochs
  double learning_rate = 0.05;
  bool shuffle = false;               // permute R1's keys per epoch (SGD)
  uint64_t seed = 17;                 // weight init + shuffle seed
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
