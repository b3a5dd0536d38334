#ifndef FACTORML_NN_BACKPROP_H_
#define FACTORML_NN_BACKPROP_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "la/matrix.h"
#include "nn/mlp.h"
#include "storage/table.h"

namespace factorml::nn::internal {

/// Shared BP machinery for the three NN trainers. The trainers differ only
/// in how the first-layer pre-activation A1 = W1 * x + b1 is produced (full
/// joined tuples for M-NN/S-NN; factorized partial inner products for
/// F-NN) and in how the W1 gradient [PG_S | PG_R] is accumulated; all
/// layers above the first are mathematically identical across algorithms
/// (the paper shows reuse beyond the first layer is not profitable,
/// Sec. VI-A2), so they live here.
class BackpropEngine {
 public:
  BackpropEngine(Mlp* mlp, double learning_rate);

  /// Enables inverted dropout on the hidden activations (the paper notes
  /// Dropout applied after a layer's activation is compatible with the
  /// factorization, Sec. VI-A). Masks are drawn from a deterministic
  /// stream seeded here; trainers that process identical batch sequences
  /// with the same seed therefore apply identical masks, preserving the
  /// M == S == F exactness property under dropout.
  void EnableDropout(double rate, uint64_t seed);

  /// Configures classical-momentum SGD with optional L2 weight decay:
  ///   v <- momentum * v - lr * (grad + weight_decay * w);  w <- w + v.
  /// Defaults (0, 0) reduce to plain SGD. Deterministic, so the M/S/F
  /// exactness property is unaffected.
  void ConfigureSgd(double momentum, double weight_decay);

  /// Applies the configured update rule to the first-layer weights using
  /// the caller-assembled gradient (the [PG_S | PG_R] split for F-NN).
  void UpdateW0(const la::Matrix& grad0);

  /// One mini-batch update given the first-layer pre-activation `a1`
  /// (batch x nh, bias already added) and targets `y` (length batch):
  /// runs the forward pass through the remaining layers, backpropagates,
  /// updates every parameter except w[0] (including b[0]), and writes
  /// delta1 = dE/dA1 (already scaled by 1/batch) for the caller to form
  /// the w[0] gradient. Returns the batch's sum of squared errors
  /// (computed before the update).
  double Step(const la::Matrix& a1, const double* y, la::Matrix* delta1);

  /// Step for the strip-fed (--kernels=simd) epoch plane, with no
  /// row-major round trip. `a1` holds the first-layer pre-activations
  /// (bias added) as nh-column strips: unit u of strip s is the
  /// contiguous run a1.Col(s, u). `y` holds the batch targets in row
  /// order. Every layer >= 1 is walked one strip at a time through the
  /// active kernel table: gemm_strip forward, deltas through W^T with the
  /// same kernel, dot-form (trans_b) weight gradients and contiguous bias
  /// row sums. delta1 = dE/dA1 lands in `delta1` in a1's strip geometry.
  /// Strips run in parallel over `threads`; the per-strip partial
  /// gradients and error sums are reduced in strip order, so the result
  /// does not depend on the thread count. Op counts use Step's formulas
  /// and dropout masks are drawn in Step's row-major (row, unit) order, so
  /// the work stream and the mask stream equal the scalar path's.
  double StepStrips(const storage::ColumnStrips& a1, const double* y,
                    int threads, storage::ColumnStrips* delta1);

  double learning_rate() const { return lr_; }

  /// Checkpoint seams: the optimizer state that must survive a restart
  /// for a resumed run to be bit-identical to an uninterrupted one.
  std::vector<la::Matrix>& vel_w() { return vel_w_; }
  std::vector<std::vector<double>>& vel_b() { return vel_b_; }
  Rng* dropout_rng() { return dropout_rng_.get(); }

 private:
  void UpdateLayer(size_t l, const la::Matrix& delta,
                   const la::Matrix& input);

  /// Per-worker scratch of the strip step: one units x strip_rows block
  /// per layer.
  struct StripScratch {
    std::vector<std::vector<double>> pre;    // layers >= 1: W h + b
    std::vector<std::vector<double>> act;    // hidden layers: f, masked
    std::vector<std::vector<double>> raw;    // hidden layers: f, unmasked
    std::vector<std::vector<double>> delta;  // layers >= 1
    std::vector<const double*> rows;         // colsum_strip row pointers
  };

  size_t units(size_t l) const { return mlp_->w[l].rows(); }
  void MaybeDropout(size_t layer);
  void ApplyUpdate(la::Matrix* w, const la::Matrix& grad,
                   la::Matrix* velocity);
  /// Column sums of `delta` (the bias gradient of the row-major path).
  const double* ColumnSums(const la::Matrix& delta);
  /// b[l] update from the batch's delta column sums over `rows` rows.
  void UpdateBias(size_t l, const double* sums, size_t rows);
  /// Step's op charges other than the parameter updates, for `rows` rows.
  void ChargeStepOps(size_t rows) const;
  /// Forward + backward of strip `s`; writes its gradient partials, bias
  /// sums and squared error into `slot` (layout: slot_off_).
  void StripPass(const storage::ColumnStrips& a1, size_t s, const double* y,
                 double inv_b, StripScratch* sc,
                 storage::ColumnStrips* delta1, double* slot) const;

  Mlp* mlp_;
  double lr_;
  double momentum_ = 0.0;
  double weight_decay_ = 0.0;
  std::vector<la::Matrix> vel_w_;               // per-layer weight velocity
  std::vector<std::vector<double>> vel_b_;      // per-layer bias velocity
  double dropout_rate_ = 0.0;
  std::unique_ptr<Rng> dropout_rng_;
  std::vector<la::Matrix> a_;      // pre-activations per layer
  std::vector<la::Matrix> h_;      // activations per layer
  std::vector<la::Matrix> delta_;  // error terms per layer
  std::vector<la::Matrix> mask_;   // dropout masks (0 or 1/(1-p))
  std::vector<la::Matrix> raw_h_;  // pre-dropout activations (for f')
  la::Matrix grad_;
  la::Matrix fprime_;
  std::vector<double> bias_sum_;
  // Strip step state.
  std::vector<la::Matrix> wt_;                   // W[l]^T, layers >= 1
  std::vector<std::vector<double>> strip_mask_;  // hidden-layer masks
  std::vector<StripScratch> scratch_;            // one per worker
  std::vector<double> partials_;                 // one slot per strip
  // Slot layout: weight-gradient block of layer l (l >= 1) at
  // grad_off_[l], bias sums of layer l at bias_off_[l], the squared error
  // at sse_off_; slot_stride_ doubles per strip.
  std::vector<size_t> grad_off_, bias_off_;
  size_t sse_off_ = 0, slot_stride_ = 0;
};

/// w -= lr * grad and the matching op count (one multiply-subtract per
/// parameter); shared with the trainers' w[0] update.
void ApplyGradient(la::Matrix* w, const la::Matrix& grad, double lr);

}  // namespace factorml::nn::internal

#endif  // FACTORML_NN_BACKPROP_H_
