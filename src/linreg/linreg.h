#ifndef FACTORML_LINREG_LINREG_H_
#define FACTORML_LINREG_LINREG_H_

#include <cstdint>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/algorithm.h"
#include "core/report.h"
#include "core/runtime_options.h"
#include "join/normalized_relations.h"
#include "storage/buffer_pool.h"

namespace factorml::core::pipeline {
class ModelProgram;
}

namespace factorml::linreg {

/// Options for closed-form ridge linear regression — the classic
/// factorized-learning baseline. One pass over the join accumulates the
/// Gram matrix G = X^T X and the cofactor vector c = X^T y; the weights
/// solve (G + l2*I) w = c. All three strategies accumulate the identical
/// statistics (up to floating-point reordering), so their weights agree —
/// the same exactness property the paper proves for GMM/NN.
struct LinregOptions : core::RuntimeOptions {
  double l2 = 1e-3;           // ridge penalty (never applied to the bias)
  bool intercept = true;      // augment X with a constant-1 column
};

/// A trained linear model over the joined feature vector
/// [XS | XR1 | ... | XRq].
struct LinregModel {
  std::vector<double> w;  // d coefficients in joined-column order
  double bias = 0.0;      // intercept (0 when disabled)

  size_t dims() const { return w.size(); }
  double Predict(const double* x) const;

  /// Max absolute coefficient difference (bias included); used by the
  /// M==S==F parity tests.
  static double MaxAbsDiff(const LinregModel& a, const LinregModel& b);
};

/// Trains with the chosen execution strategy via core/pipeline. The
/// relations must carry a target column.
Result<LinregModel> TrainLinreg(const join::NormalizedRelations& rel,
                                const LinregOptions& options,
                                core::Algorithm algorithm,
                                storage::BufferPool* pool,
                                core::TrainReport* report);

/// Process-shard-backend seam (core/pipeline/shard_rpc.h): serialize /
/// decode the math-relevant LinregOptions for the JOB frame's family blob
/// and rebuild the identical ModelProgram on a factormld worker.
std::string EncodeShardJob(const LinregOptions& options);
Result<LinregOptions> DecodeShardJob(const std::string& blob);
std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const LinregOptions& options);

}  // namespace factorml::linreg

#endif  // FACTORML_LINREG_LINREG_H_
