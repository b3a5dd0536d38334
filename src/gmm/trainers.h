#ifndef FACTORML_GMM_TRAINERS_H_
#define FACTORML_GMM_TRAINERS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/report.h"
#include "core/runtime_options.h"
#include "gmm/gmm_model.h"
#include "join/normalized_relations.h"
#include "storage/buffer_pool.h"

namespace factorml::core::pipeline {
class ModelProgram;
}

namespace factorml::gmm {

/// Mean-initialization strategies. Both are deterministic given the seed,
/// so every algorithm starts from the identical model.
enum class GmmInit {
  kSpreadRows,  // means = joined rows at i*N/K (default)
  kRandomRows,  // means = K distinct uniformly drawn joined rows
};

/// Options shared by the three GMM training algorithms: the EM
/// hyperparameters on top of the runtime knobs (core::RuntimeOptions). All
/// three run the identical EM recurrence from the identical deterministic
/// initialization, so their outputs agree to floating-point reordering
/// tolerance — the paper's exactness guarantee (Sec. V-B).
struct GmmOptions : core::RuntimeOptions {
  size_t num_components = 5;   // K
  int max_iters = 10;          // EM iterations (the paper times fixed iters)
  double tol = 0.0;            // >0: stop when |delta loglik| < tol*|loglik|
  double init_spread = 5.0;    // initial covariance scale
  /// Ridge added to every covariance diagonal in each M-step (standard
  /// EM regularization; keeps components from collapsing to singular
  /// covariances on degenerate data). Applied identically by all three
  /// algorithms, so exactness is preserved.
  double cov_reg = 1e-6;
  GmmInit init = GmmInit::kSpreadRows;
  uint64_t seed = 1;           // used by kRandomRows
  /// F-GMM refinement over the paper's literal accounting: the precision
  /// matrix and the covariance accumulator are symmetric, so the UR and LL
  /// cross blocks (Eqs. 10-11 / 16-17) are transposes of each other. When
  /// set (default), F-GMM computes each cross block once — doubling it in
  /// the E-step quadratic form and mirroring it once per pass in the
  /// covariance update — which is exact and cuts the per-tuple cross work
  /// in half. Clear it to reproduce the paper's op counts verbatim.
  bool exploit_symmetry = true;
};

/// Algorithm M-GMM (paper Algorithm 1): joins S with R1..Rq, materializes
/// table T on disk, then runs EM reading T three times per iteration.
Result<GmmParams> TrainGmmMaterialized(const join::NormalizedRelations& rel,
                                       const GmmOptions& options,
                                       storage::BufferPool* pool,
                                       core::TrainReport* report);

/// Algorithm S-GMM: identical EM, but the join is recomputed on the fly
/// each pass (stream S, probe resident attribute tables) and each joined
/// tuple is assembled into a full d-vector before entering the math.
Result<GmmParams> TrainGmmStreaming(const join::NormalizedRelations& rel,
                                    const GmmOptions& options,
                                    storage::BufferPool* pool,
                                    core::TrainReport* report);

/// Algorithm F-GMM (the paper's contribution, Sec. V-B/V-C): EM pushed
/// through the join. Per-attribute-tuple quantities — the centered slices
/// PD_Ri, the diagonal quadratic blocks PD^T I_ii PD, and the diagonal
/// outer-product blocks of the covariance update — are computed once per
/// R tuple per pass and reused for every matching fact tuple. Handles any
/// number of joins q >= 1 (q = 1 is the paper's binary case).
Result<GmmParams> TrainGmmFactorized(const join::NormalizedRelations& rel,
                                     const GmmOptions& options,
                                     storage::BufferPool* pool,
                                     core::TrainReport* report);

/// Process-shard-backend seam (core/pipeline/shard_rpc.h): the
/// coordinator serializes the math-relevant GmmOptions into the JOB
/// frame's family blob; a factormld worker decodes the blob and rebuilds
/// the identical ModelProgram, so both sides run the same EM recurrence
/// from the same deterministic initialization.
std::string EncodeShardJob(const GmmOptions& options);
Result<GmmOptions> DecodeShardJob(const std::string& blob);
std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const GmmOptions& options);

}  // namespace factorml::gmm

#endif  // FACTORML_GMM_TRAINERS_H_
