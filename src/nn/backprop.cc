#include "nn/backprop.h"

#include <algorithm>

#include "common/opcount.h"
#include "exec/parallel_for.h"
#include "la/kernels.h"
#include "la/ops.h"

namespace factorml::nn::internal {

BackpropEngine::BackpropEngine(Mlp* mlp, double learning_rate)
    : mlp_(mlp), lr_(learning_rate) {
  const size_t layers = mlp_->num_weight_layers();
  FML_CHECK_GE(layers, 2u) << "need at least one hidden layer";
  a_.resize(layers);
  h_.resize(layers);
  delta_.resize(layers);
  mask_.resize(layers);
  raw_h_.resize(layers);
}

void BackpropEngine::ConfigureSgd(double momentum, double weight_decay) {
  FML_CHECK_GE(momentum, 0.0);
  FML_CHECK_LT(momentum, 1.0);
  FML_CHECK_GE(weight_decay, 0.0);
  momentum_ = momentum;
  weight_decay_ = weight_decay;
  // Pre-size the velocity buffers to their steady-state shapes so the
  // checkpoint visitor's double stream is a pure function of Init-time
  // configuration (the lazy sizing in the update hooks then never fires).
  const size_t layers = mlp_->num_weight_layers();
  if (momentum_ > 0.0 || weight_decay_ > 0.0) {
    vel_w_.resize(layers);
    for (size_t l = 0; l < layers; ++l) {
      vel_w_[l].Resize(mlp_->w[l].rows(), mlp_->w[l].cols());
    }
  }
  if (momentum_ > 0.0) {
    vel_b_.resize(layers);
    for (size_t l = 0; l < layers; ++l) {
      vel_b_[l].assign(mlp_->b[l].size(), 0.0);
    }
  }
}

void BackpropEngine::ApplyUpdate(la::Matrix* w, const la::Matrix& grad,
                                 la::Matrix* velocity) {
  FML_CHECK_EQ(w->size(), grad.size());
  if (momentum_ == 0.0 && weight_decay_ == 0.0) {
    ApplyGradient(w, grad, lr_);
    return;
  }
  if (velocity->size() != w->size()) {
    velocity->Resize(w->rows(), w->cols());
  }
  double* wv = w->data();
  double* vv = velocity->data();
  const double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    vv[i] = momentum_ * vv[i] - lr_ * (g[i] + weight_decay_ * wv[i]);
    wv[i] += vv[i];
  }
  CountMults(3 * grad.size());
  CountAdds(3 * grad.size());
}

void BackpropEngine::UpdateW0(const la::Matrix& grad0) {
  if (vel_w_.empty()) vel_w_.resize(mlp_->num_weight_layers());
  ApplyUpdate(&mlp_->w[0], grad0, &vel_w_[0]);
}

void BackpropEngine::EnableDropout(double rate, uint64_t seed) {
  FML_CHECK_GE(rate, 0.0);
  FML_CHECK_LT(rate, 1.0);
  dropout_rate_ = rate;
  if (rate > 0.0) {
    dropout_rng_ = std::make_unique<Rng>(seed);
  }
}

void BackpropEngine::MaybeDropout(size_t layer) {
  if (dropout_rate_ <= 0.0) return;
  // Keep the unmasked activations: the activation derivative in the
  // backward pass is a function of f(a), not of the dropped output.
  raw_h_[layer] = h_[layer];
  la::Matrix& h = h_[layer];
  la::Matrix& mask = mask_[layer];
  if (mask.rows() != h.rows() || mask.cols() != h.cols()) {
    mask.Resize(h.rows(), h.cols());
  }
  const double keep_scale = 1.0 / (1.0 - dropout_rate_);
  double* hv = h.data();
  double* mv = mask.data();
  for (size_t i = 0; i < h.size(); ++i) {
    mv[i] = dropout_rng_->NextDouble() >= dropout_rate_ ? keep_scale : 0.0;
    hv[i] *= mv[i];
  }
  CountMults(h.size());
}

void ApplyGradient(la::Matrix* w, const la::Matrix& grad, double lr) {
  FML_CHECK_EQ(w->size(), grad.size());
  double* dst = w->data();
  const double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) dst[i] -= lr * g[i];
  CountMults(grad.size());
  CountSubs(grad.size());
}

void BackpropEngine::UpdateLayer(size_t l, const la::Matrix& delta,
                                 const la::Matrix& input) {
  if (vel_w_.empty()) vel_w_.resize(mlp_->num_weight_layers());
  la::GemmTN(delta, input, &grad_, /*accumulate=*/false);
  ApplyUpdate(&mlp_->w[l], grad_, &vel_w_[l]);
  UpdateBias(l, ColumnSums(delta), delta.rows());
}

const double* BackpropEngine::ColumnSums(const la::Matrix& delta) {
  bias_sum_.resize(delta.cols());
  for (size_t j = 0; j < delta.cols(); ++j) {
    double s = 0.0;
    for (size_t r = 0; r < delta.rows(); ++r) s += delta(r, j);
    bias_sum_[j] = s;
  }
  return bias_sum_.data();
}

void BackpropEngine::UpdateBias(size_t l, const double* sums, size_t rows) {
  // Bias gradient: column sums of delta. Weight decay is not applied to
  // biases (standard practice).
  if (vel_b_.empty()) vel_b_.resize(mlp_->num_weight_layers());
  auto& bias = mlp_->b[l];
  auto& vel = vel_b_[l];
  if (momentum_ > 0.0 && vel.size() != bias.size()) {
    vel.assign(bias.size(), 0.0);
  }
  for (size_t j = 0; j < bias.size(); ++j) {
    const double s = sums[j];
    if (momentum_ > 0.0) {
      vel[j] = momentum_ * vel[j] - lr_ * s;
      bias[j] += vel[j];
    } else {
      bias[j] -= lr_ * s;
    }
  }
  CountAdds(rows * bias.size());
  CountMults(bias.size());
  CountSubs(bias.size());
}

double BackpropEngine::Step(const la::Matrix& a1, const double* y,
                            la::Matrix* delta1) {
  const size_t layers = mlp_->num_weight_layers();
  const size_t batch = a1.rows();
  FML_CHECK_GT(batch, 0u);

  // ---- Forward from the (externally computed) first pre-activation.
  ApplyActivation(mlp_->activation, a1, &h_[0]);
  MaybeDropout(0);
  for (size_t l = 1; l < layers; ++l) {
    la::GemmNT(h_[l - 1], mlp_->w[l], &a_[l], /*accumulate=*/false);
    la::AddRowVector(mlp_->b[l].data(), &a_[l]);
    if (l + 1 < layers) {
      ApplyActivation(mlp_->activation, a_[l], &h_[l]);
      MaybeDropout(l);
    } else {
      h_[l] = a_[l];  // linear output unit
    }
  }

  // ---- Output error: E = 1/(2b) sum (o - y)^2, so dE/dO = (o - y)/b.
  const la::Matrix& out = h_[layers - 1];
  FML_CHECK_EQ(out.cols(), 1u);
  la::Matrix& dout = delta_[layers - 1];
  dout.Resize(batch, 1);
  double sse = 0.0;
  const double inv_b = 1.0 / static_cast<double>(batch);
  for (size_t r = 0; r < batch; ++r) {
    const double e = out(r, 0) - y[r];
    sse += e * e;
    dout(r, 0) = e * inv_b;
  }
  CountSubs(batch);
  CountMults(2 * batch);
  CountAdds(batch);

  // ---- Backward: compute all deltas with the pre-update weights.
  for (size_t l = layers - 1; l >= 1; --l) {
    la::Matrix& prev = delta_[l - 1];
    la::GemmNN(delta_[l], mlp_->w[l], &prev, /*accumulate=*/false);
    // Multiply element-wise by f'(a_{l-1}); layer 0's pre-activation is
    // the caller-provided a1. Under dropout, the chain also passes
    // through the mask, and f' must use the unmasked activations.
    const la::Matrix& pre = (l - 1 == 0) ? a1 : a_[l - 1];
    const la::Matrix& act =
        dropout_rate_ > 0.0 ? raw_h_[l - 1] : h_[l - 1];
    ActivationGrad(mlp_->activation, pre, act, &fprime_);
    double* p = prev.data();
    const double* f = fprime_.data();
    for (size_t i = 0; i < prev.size(); ++i) p[i] *= f[i];
    CountMults(prev.size());
    if (dropout_rate_ > 0.0) {
      const double* m = mask_[l - 1].data();
      for (size_t i = 0; i < prev.size(); ++i) p[i] *= m[i];
      CountMults(prev.size());
    }
  }

  // ---- Updates for layers >= 1 plus the first-layer bias; the caller
  // owns the w[0] gradient (that is where M/S and F differ).
  for (size_t l = 1; l < layers; ++l) {
    UpdateLayer(l, delta_[l], h_[l - 1]);
  }
  UpdateBias(0, ColumnSums(delta_[0]), batch);

  *delta1 = delta_[0];
  return sse;
}

void BackpropEngine::ChargeStepOps(size_t rows) const {
  const size_t layers = mlp_->num_weight_layers();
  const bool transcendental = IsTranscendental(mlp_->activation);
  const bool dropout = dropout_rate_ > 0.0;
  uint64_t mults = 2 * rows, adds = rows, subs = rows, exps = 0;  // output
  for (size_t l = 0; l + 1 < layers; ++l) {
    const uint64_t cells = rows * units(l);
    if (transcendental) {  // f forward, f' = h(1-h) or 1-h^2 backward
      exps += cells;
      mults += cells;
      subs += cells;
    }
    mults += cells;                   // delta *= f'
    if (dropout) mults += 2 * cells;  // mask, forward and backward
  }
  for (size_t l = 1; l < layers; ++l) {
    const uint64_t macs = rows * units(l) * units(l - 1);
    mults += 3 * macs;  // forward, delta through W^T, weight gradient
    adds += 3 * macs + rows * units(l);  // ... plus the bias add
  }
  CountMults(mults);
  CountAdds(adds);
  CountSubs(subs);
  CountExps(exps);
}

void BackpropEngine::StripPass(const storage::ColumnStrips& a1, size_t s,
                               const double* y, double inv_b,
                               StripScratch* sc,
                               storage::ColumnStrips* delta1,
                               double* slot) const {
  const la::Kernels& kern = la::Active();
  const size_t layers = mlp_->num_weight_layers();
  const size_t height = a1.strip_rows;
  const size_t rows = a1.RowsInStrip(s);
  const size_t row0 = a1.StripStart(s);
  const la::ActKind kind = KernelActivation(mlp_->activation);
  const bool dropout = dropout_rate_ > 0.0;
  const auto pre = [&](size_t l) {
    return l == 0 ? a1.Col(s, 0) : sc->pre[l].data();
  };
  const auto mask = [&](size_t l) {
    return strip_mask_[l].data() + s * units(l) * height;
  };

  // ---- Forward: hidden activations (masked under dropout), then the
  // next layer's pre-activation W h + b; the output unit stays linear.
  for (size_t l = 0; l + 1 < layers; ++l) {
    const size_t n = units(l);
    double* h = sc->act[l].data();
    for (size_t u = 0; u < n; ++u) {
      kern.activation(kind, pre(l) + u * height, h + u * height, rows);
    }
    if (dropout) {
      const double* m = mask(l);
      double* raw = sc->raw[l].data();
      for (size_t u = 0; u < n; ++u) {
        const size_t o = u * height;
        std::copy(h + o, h + o + rows, raw + o);
        for (size_t r = 0; r < rows; ++r) h[o + r] *= m[o + r];
      }
    }
    const size_t out = units(l + 1);
    double* next = sc->pre[l + 1].data();
    kern.gemm_strip(mlp_->w[l + 1].data(), n, h, height, out, rows, n, next,
                    height, /*trans_b=*/false, /*accumulate=*/false);
    for (size_t u = 0; u < out; ++u) {
      const double bu = mlp_->b[l + 1][u];
      double* nu = next + u * height;
      for (size_t r = 0; r < rows; ++r) nu[r] += bu;
    }
  }

  // ---- Output error: dE/dO = (o - y) / batch.
  const double* o = sc->pre[layers - 1].data();
  double* dout = sc->delta[layers - 1].data();
  double sse = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    const double e = o[r] - y[row0 + r];
    sse += e * e;
    dout[r] = e * inv_b;
  }
  slot[sse_off_] = sse;

  // ---- Backward through W^T with the pre-update weights, times f' (of
  // the unmasked activations) and the mask; layer 0's delta is written
  // straight into delta1's strip.
  for (size_t l = layers - 1; l >= 1; --l) {
    const size_t n = units(l - 1);
    double* prev = l == 1 ? delta1->MutableCol(s, 0) : sc->delta[l - 1].data();
    kern.gemm_strip(wt_[l].data(), units(l), sc->delta[l].data(), height, n,
                    rows, units(l), prev, height, /*trans_b=*/false,
                    /*accumulate=*/false);
    const double* act = dropout ? sc->raw[l - 1].data() : sc->act[l - 1].data();
    for (size_t u = 0; u < n; ++u) {
      const size_t off = u * height;
      MulActivationGrad(mlp_->activation, pre(l - 1) + off, act + off,
                        prev + off, rows);
      if (dropout) {
        const double* m = mask(l - 1) + off;
        for (size_t r = 0; r < rows; ++r) prev[off + r] *= m[r];
      }
    }
  }

  // ---- This strip's partials: weight gradients delta_l h_{l-1}^T in dot
  // form, bias gradients as contiguous row sums of every delta.
  for (size_t l = 1; l < layers; ++l) {
    kern.gemm_strip(sc->delta[l].data(), height, sc->act[l - 1].data(), height,
                    units(l), units(l - 1), rows, slot + grad_off_[l],
                    units(l - 1), /*trans_b=*/true, /*accumulate=*/false);
  }
  for (size_t l = 0; l < layers; ++l) {
    const double* d = l == 0 ? delta1->Col(s, 0) : sc->delta[l].data();
    double* acc = slot + bias_off_[l];
    std::fill(acc, acc + units(l), 0.0);
    for (size_t u = 0; u < units(l); ++u) sc->rows[u] = d + u * height;
    kern.colsum_strip(sc->rows.data(), units(l), rows, /*w=*/nullptr, acc);
  }
}

double BackpropEngine::StepStrips(const storage::ColumnStrips& a1,
                                  const double* y, int threads,
                                  storage::ColumnStrips* delta1) {
  const size_t layers = mlp_->num_weight_layers();
  const size_t batch = a1.num_rows;
  const size_t height = a1.strip_rows;
  const size_t strips = a1.num_strips;
  FML_CHECK_GT(batch, 0u);
  FML_CHECK_EQ(a1.num_cols, units(0));
  delta1->Shape(height, batch, units(0), /*key_cols=*/0, a1.start_row);

  // Deltas propagate through the pre-update weights, transposed once per
  // batch so the backward product is the same axpy-form gemm_strip.
  wt_.resize(layers);
  for (size_t l = 1; l < layers; ++l) wt_[l] = mlp_->w[l].Transposed();

  // Dropout masks for every hidden layer, drawn up front in Step's order
  // (layer by layer, row-major over (row, unit)) and stored strip-major.
  if (dropout_rate_ > 0.0) {
    const double keep_scale = 1.0 / (1.0 - dropout_rate_);
    strip_mask_.resize(layers - 1);
    for (size_t l = 0; l + 1 < layers; ++l) {
      const size_t n = units(l);
      strip_mask_[l].resize(strips * n * height);
      for (size_t r = 0; r < batch; ++r) {
        double* m =
            strip_mask_[l].data() + (r / height) * n * height + r % height;
        for (size_t u = 0; u < n; ++u) {
          m[u * height] =
              dropout_rng_->NextDouble() >= dropout_rate_ ? keep_scale : 0.0;
        }
      }
    }
  }

  grad_off_.assign(layers, 0);
  bias_off_.assign(layers, 0);
  size_t off = 0;
  for (size_t l = 1; l < layers; ++l) {
    grad_off_[l] = off;
    off += units(l) * units(l - 1);
  }
  size_t max_units = 0;
  for (size_t l = 0; l < layers; ++l) {
    bias_off_[l] = off;
    off += units(l);
    max_units = std::max(max_units, units(l));
  }
  sse_off_ = off;
  slot_stride_ = off + 1;
  partials_.resize(strips * slot_stride_);

  scratch_.resize(static_cast<size_t>(std::max(1, threads)));
  for (StripScratch& sc : scratch_) {
    sc.pre.resize(layers);
    sc.act.resize(layers);
    sc.raw.resize(layers);
    sc.delta.resize(layers);
    sc.rows.resize(max_units);
    for (size_t l = 0; l < layers; ++l) {
      const size_t block = units(l) * height;
      if (l >= 1) {
        sc.pre[l].resize(block);
        sc.delta[l].resize(block);
      }
      if (l + 1 < layers) {
        sc.act[l].resize(block);
        if (dropout_rate_ > 0.0) sc.raw[l].resize(block);
      }
    }
  }

  const double inv_b = 1.0 / static_cast<double>(batch);
  exec::ParallelFor(threads, static_cast<int64_t>(strips), /*align=*/1,
                    [&](exec::Range rg, int w) {
                      for (int64_t s = rg.begin; s < rg.end; ++s) {
                        const auto sp = static_cast<size_t>(s);
                        StripPass(a1, sp, y, inv_b,
                                  &scratch_[static_cast<size_t>(w)], delta1,
                                  partials_.data() + sp * slot_stride_);
                      }
                    });

  // Strip-order reduction into slot 0: the same sums for any thread count.
  double* total = partials_.data();
  for (size_t s = 1; s < strips; ++s) {
    const double* slot = partials_.data() + s * slot_stride_;
    for (size_t i = 0; i < slot_stride_; ++i) total[i] += slot[i];
  }

  if (vel_w_.empty()) vel_w_.resize(layers);
  for (size_t l = 1; l < layers; ++l) {
    grad_.Reshape(units(l), units(l - 1));
    std::copy(total + grad_off_[l], total + grad_off_[l] + grad_.size(),
              grad_.data());
    ApplyUpdate(&mlp_->w[l], grad_, &vel_w_[l]);
    UpdateBias(l, total + bias_off_[l], batch);
  }
  UpdateBias(0, total + bias_off_[0], batch);
  ChargeStepOps(batch);
  return total[sse_off_];
}

}  // namespace factorml::nn::internal
