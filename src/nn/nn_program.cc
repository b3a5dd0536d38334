// The MLP as a core/pipeline ModelProgram on the mini-batch plane: one
// epoch = one ordered stream of whole-FK1-group batches (identical across
// M/S/F, which is what makes the strategies' outputs comparable exactly).
// The dense batch path (M/S) runs standard BP over assembled rows; the
// factorized path implements Sec. VI-A — partial first-layer inner
// products cached per attribute tuple per weight version, and the W1
// gradient formed from the base relations directly. The former m_nn.cc /
// s_nn.cc / f_nn.cc trainers are thin wrappers over this one program.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/opcount.h"
#include "core/pipeline/access_internal.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "exec/parallel_for.h"
#include "join/batch_plan.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "nn/backprop.h"
#include "nn/trainers.h"

namespace factorml::nn {

namespace {

using core::pipeline::DenseBatch;
using core::pipeline::FactorizedBlock;
using core::pipeline::InvalidOption;
using core::pipeline::PipelineContext;

/// Per-attribute-table cache of first-layer partial inner products:
/// row rid holds W1[:, slice_i] * x_ri (plus the layer bias for table 0,
/// matching the paper's T2 = sum w x_R + b). An entry is valid for weight
/// version `stamp[rid]`; since mini-batch SGD changes W1 every update,
/// entries are recomputed on first use per version — "computed when one
/// tuple in R appears for the first time and reused for the remaining
/// matching tuples" (Sec. VI-A2).
struct PartialCache {
  la::Matrix c;                 // nRi x nh
  std::vector<uint64_t> stamp;  // nRi, last weight version computed
};

class NnProgram final : public core::pipeline::ModelProgram {
 public:
  explicit NnProgram(const NnOptions& options) : opt_(options) {}

  const char* Name() const override { return "NN"; }
  const char* TempStem() const override { return "nn"; }
  uint32_t Capabilities() const override {
    return core::pipeline::kMiniBatch | core::pipeline::kFactorized |
           core::pipeline::kNeedsTarget;
  }
  int MaxIterations() const override { return opt_.epochs; }

  /// Rejects hyperparameters the engine cannot train with, before any
  /// cursor or engine exists. Each message names the NnOptions field and
  /// its CLI flag.
  Status ValidateOptions(const join::NormalizedRelations&) const override {
    if (opt_.hidden.empty()) {
      return Status::InvalidArgument("at least one hidden layer required");
    }
    for (const size_t width : opt_.hidden) {
      if (width == 0) {
        return Status::InvalidArgument("NN: hidden widths (--nh) must be >= 1");
      }
    }
    if (opt_.epochs < 0) {
      return InvalidOption("NN", "epochs", "epochs", ">= 0", opt_.epochs);
    }
    if (!(opt_.learning_rate > 0.0) || !std::isfinite(opt_.learning_rate)) {
      return InvalidOption("NN", "learning_rate", "lr", "finite and > 0",
                           opt_.learning_rate);
    }
    if (!(opt_.hidden_dropout >= 0.0 && opt_.hidden_dropout < 1.0)) {
      return InvalidOption("NN", "hidden_dropout", "dropout", "in [0, 1)",
                           opt_.hidden_dropout);
    }
    if (!(opt_.momentum >= 0.0 && opt_.momentum < 1.0)) {
      return InvalidOption("NN", "momentum", "momentum", "in [0, 1)",
                           opt_.momentum);
    }
    if (!(opt_.weight_decay >= 0.0) || !std::isfinite(opt_.weight_decay)) {
      return InvalidOption("NN", "weight_decay", "weight_decay",
                           "finite and >= 0", opt_.weight_decay);
    }
    return Status::OK();
  }

  Status Init(const PipelineContext& ctx) override {
    rel_ = ctx.rel;
    factorized_ = ctx.factorized();
    q_ = rel_->num_joins();
    ds_ = rel_->ds();
    d_ = rel_->total_dims();
    nh_ = opt_.hidden[0];
    n_ = rel_->s.num_rows();
    attr_offset_.resize(q_);
    for (size_t i = 0; i < q_; ++i) attr_offset_[i] = rel_->FeatureOffset(i + 1);

    mlp_ = Mlp::Init(d_, opt_.hidden, opt_.activation, opt_.seed);
    engine_ = std::make_unique<internal::BackpropEngine>(&mlp_,
                                                         opt_.learning_rate);
    if (opt_.hidden_dropout > 0.0) {
      engine_->EnableDropout(opt_.hidden_dropout, opt_.seed ^ 0xD40);
    }
    engine_->ConfigureSgd(opt_.momentum, opt_.weight_decay);
    grad0_ = la::Matrix(mlp_.w[0].rows(), mlp_.w[0].cols());
    if (factorized_) {
      caches_.resize(q_);
      stale_.resize(q_);
      version_ = 1;  // bumped after every weight update
    }
    return Status::OK();
  }

  std::vector<int64_t> EpochRidOrder(const PipelineContext& ctx,
                                     int epoch) override {
    if (!opt_.shuffle) return {};
    return join::PermutedRids(ctx.rel->fk1_index.num_rids(), opt_.seed,
                              epoch);
  }

  Status BeginEpoch(const PipelineContext& ctx, int /*epoch*/) override {
    epoch_sse_ = 0.0;
    if (factorized_) {
      for (size_t i = 0; i < q_; ++i) {
        if (caches_[i].stamp.empty()) {
          const size_t n_ri = (*ctx.views)[i].feats().rows();
          caches_[i].c.Resize(n_ri, nh_);
          caches_[i].stamp.assign(n_ri, 0);
        }
      }
    }
    return Status::OK();
  }

  Status OnDenseBatch(const PipelineContext& ctx,
                      const DenseBatch& batch) override {
    if (batch.strips != nullptr) return OnDenseBatchStrips(ctx, batch);
    const la::Matrix& x = *batch.x;
    const size_t b = x.rows();
    const int threads = ctx.threads;

    // First-layer forward over row morsels: each a1 row depends only on
    // its own input row, so any partition is bit-identical to serial.
    a1_.Reshape(b, nh_);
    {
      core::PhaseScope phase(ctx.report, "first_layer_fwd");
      exec::ParallelFor(threads, static_cast<int64_t>(b), /*align=*/1,
                        [&](exec::Range rg, int) {
                          la::GemmNTSliceRows(x, mlp_.w[0], 0, &a1_,
                                              static_cast<size_t>(rg.begin),
                                              static_cast<size_t>(rg.end),
                                              /*accumulate=*/false);
                          la::AddRowVectorRows(mlp_.b[0].data(), &a1_,
                                               static_cast<size_t>(rg.begin),
                                               static_cast<size_t>(rg.end));
                        });
    }
    {
      core::PhaseScope phase(ctx.report, "upper_layers");
      epoch_sse_ += engine_->Step(a1_, batch.y->data(), &delta1_);
    }

    // W1 gradient over column morsels: the per-element accumulation
    // order over the batch rows is unchanged, so this too is
    // bit-identical for any thread count.
    grad0_.SetZero();
    {
      core::PhaseScope phase(ctx.report, "w1_grad");
      exec::ParallelFor(threads, static_cast<int64_t>(d_), /*align=*/1,
                        [&](exec::Range rg, int) {
                          la::GemmTNSliceCols(delta1_, x, &grad0_, 0,
                                              static_cast<size_t>(rg.begin),
                                              static_cast<size_t>(rg.end));
                        });
    }
    engine_->UpdateW0(grad0_);
    return Status::OK();
  }

  /// Strip-fed epoch step (--kernels=simd): the whole batch stays in
  /// strip layout from the first-layer `gemm_strip` output through the
  /// upper layers (BackpropEngine::StepStrips) to the W1 gradient — no
  /// row-major activation or delta block exists on this path. Op counts
  /// are charged with the exact scalar formulas per strip, and every
  /// strip/morsel boundary is schedule-determined, so iterations, op
  /// counters, and page I/O stay EXPECT_EQ-identical to the scalar path —
  /// only the within-strip summation order and the vector exp (hence
  /// numerics, to tolerance) differ.
  Status OnDenseBatchStrips(const PipelineContext& ctx,
                            const DenseBatch& batch) {
    const storage::ColumnStrips& st = *batch.strips;
    const size_t b = st.num_rows;
    const int threads = ctx.threads;
    const la::Kernels& kern = la::Active();

    // First-layer forward, one strip at a time, straight into the
    // activation strips: a1 (nh x rows) = W1 * B + b1, where B is the
    // strip's feature block (d x rows, ldb = strip height). Strips are
    // disjoint row blocks, so any strip partition is deterministic.
    a1s_.Shape(st.strip_rows, b, nh_, /*key_cols=*/0, st.start_row);
    {
      core::PhaseScope phase(ctx.report, "first_layer_fwd");
      exec::ParallelFor(
          threads, static_cast<int64_t>(st.num_strips), /*align=*/1,
          [&](exec::Range rg, int) {
            for (int64_t s = rg.begin; s < rg.end; ++s) {
              const auto sp = static_cast<size_t>(s);
              const size_t rows = st.RowsInStrip(sp);
              double* a1 = a1s_.MutableCol(sp, 0);
              kern.gemm_strip(mlp_.w[0].data(), d_, st.Col(sp, 0),
                              st.strip_rows, nh_, rows, d_, a1,
                              st.strip_rows, /*trans_b=*/false,
                              /*accumulate=*/false);
              for (size_t u = 0; u < nh_; ++u) {
                const double bu = mlp_.b[0][u];
                double* au = a1 + u * st.strip_rows;
                for (size_t r = 0; r < rows; ++r) au[r] += bu;
              }
              CountMults(rows * nh_ * d_);
              CountAdds(rows * nh_ * d_ + rows * nh_);
            }
          });
    }
    {
      core::PhaseScope phase(ctx.report, "upper_layers");
      epoch_sse_ += engine_->StepStrips(a1s_, batch.y->data(), threads, &d1s_);
    }

    // W1 gradient over column morsels, strips ascending inside each
    // morsel: grad0[:, cb:ce] += sum_s d1_strip_s * x_strip_s^T — the
    // dot-form gemm over two strip blocks of the same height. The strip
    // order is fixed, so the gradient is bit-identical for any thread
    // count (and within-morsel numerics match the serial strip sweep).
    grad0_.SetZero();
    {
      core::PhaseScope phase(ctx.report, "w1_grad");
      exec::ParallelFor(
          threads, static_cast<int64_t>(d_), /*align=*/1,
          [&](exec::Range rg, int) {
            const auto cb = static_cast<size_t>(rg.begin);
            const size_t len = static_cast<size_t>(rg.end) - cb;
            for (size_t s = 0; s < st.num_strips; ++s) {
              const size_t rows = st.RowsInStrip(s);
              kern.gemm_strip(d1s_.Col(s, 0), d1s_.strip_rows, st.Col(s, cb),
                              st.strip_rows, nh_, len, rows,
                              grad0_.data() + cb, d_, /*trans_b=*/true,
                              /*accumulate=*/true);
            }
            CountMults(b * nh_ * len);
            CountAdds(b * nh_ * len);
          });
    }
    engine_->UpdateW0(grad0_);
    return Status::OK();
  }

  Status OnFactorizedBatch(const PipelineContext& ctx,
                           const FactorizedBlock& block) override {
    const storage::RowBatch& s_rows = *block.s_rows;
    const std::vector<join::JoinGroup>& groups = *block.groups;
    const std::vector<join::AttributeTableView>& views = *ctx.views;
    const storage::ColumnStrips* st = block.s_strips;
    const size_t b = s_rows.num_rows;
    const int threads = ctx.threads;

    y_.resize(b);
    if (st == nullptr) {
      xs_.Reshape(b, ds_);
      exec::ParallelFor(
          threads, static_cast<int64_t>(b), /*align=*/1,
          [&](exec::Range rg, int) {
            for (int64_t r = rg.begin; r < rg.end; ++r) {
              y_[static_cast<size_t>(r)] =
                  s_rows.feats(static_cast<size_t>(r), 0);
              std::memcpy(xs_.Row(static_cast<size_t>(r)).data(),
                          s_rows.feats.Row(static_cast<size_t>(r)).data() + 1,
                          sizeof(double) * ds_);
            }
          });
    } else {
      // Strip path: the S slice arrives pre-transposed (target at strip
      // column 0, features at 1..ds), so xs_ is never assembled. Gather
      // the targets and the per-table rid index buffers the strip
      // kernels consume (pure data movement, uncharged like assembly).
      ridbuf_.resize(q_);
      for (size_t i = 0; i < q_; ++i) ridbuf_[i].resize(b);
      for (size_t r = 0; r < b; ++r) {
        y_[r] = s_rows.feats(r, 0);
        const int64_t* keys = s_rows.KeysOf(r);
        for (size_t i = 0; i < q_; ++i) {
          ridbuf_[i][r] = keys[rel_->FkKeyIndex(i)];
        }
      }
    }

    // ---- Refresh the partial caches for this weight version: collect
    // the stale rids the batch touches (table 0 straight from the rid
    // groups; further tables by scanning the FK columns), then fill the
    // collected rows in parallel — rows are disjoint, and the identical
    // arithmetic runs whether filled here or lazily, so results and op
    // totals match the serial path exactly.
    {
      core::PhaseScope phase(ctx.report, "partial_cache");
      for (size_t i = 0; i < q_; ++i) stale_[i].clear();
      for (const auto& g : groups) {
        if (g.count == 0) continue;
        const auto rid = static_cast<size_t>(g.rid);
        if (caches_[0].stamp[rid] != version_) {
          caches_[0].stamp[rid] = version_;
          stale_[0].push_back(g.rid);
        }
      }
      for (size_t r = 0; q_ > 1 && r < b; ++r) {
        const int64_t* keys = s_rows.KeysOf(r);
        for (size_t i = 1; i < q_; ++i) {
          const auto rid = static_cast<size_t>(keys[rel_->FkKeyIndex(i)]);
          if (caches_[i].stamp[rid] != version_) {
            caches_[i].stamp[rid] = version_;
            stale_[i].push_back(static_cast<int64_t>(rid));
          }
        }
      }
      for (size_t i = 0; i < q_; ++i) {
        PartialCache& cache = caches_[i];
        const std::vector<int64_t>& todo = stale_[i];
        if (todo.empty()) continue;
        exec::ParallelFor(
            threads, static_cast<int64_t>(todo.size()), /*align=*/1,
            [&](exec::Range rg, int) {
              for (int64_t s = rg.begin; s < rg.end; ++s) {
                const auto rid =
                    static_cast<size_t>(todo[static_cast<size_t>(s)]);
                const auto xr =
                    views[i].FeaturesOf(static_cast<int64_t>(rid));
                const size_t dri = xr.size();
                double* c_row = cache.c.Row(rid).data();
                const size_t ldw = mlp_.w[0].cols();
                const double* w_base = mlp_.w[0].data() + attr_offset_[i];
                for (size_t u = 0; u < nh_; ++u) {
                  double sum = 0.0;
                  const double* w_row = w_base + u * ldw;
                  for (size_t j = 0; j < dri; ++j) sum += w_row[j] * xr[j];
                  // The paper's T2 carries the bias with the first
                  // partial sum.
                  c_row[u] = (i == 0) ? sum + mlp_.b[0][u] : sum;
                }
                CountMults(nh_ * dri);
                CountAdds(nh_ * dri + (i == 0 ? nh_ : 0));
              }
            });
      }
    }

    // ---- Factorized forward, first layer (Sec. VI-A1 / Eq. 31):
    // A1 = XS * W_S^T  +  sum_i cache_i(rid_i), row-parallel over the
    // batch (each a1 row reads only its own xs row and cached partials).
    if (st != nullptr) {
      // Strip path: the XS product is one gemm_strip per strip (W_S is
      // the leading ds-column slice of W1) straight into the activation
      // strips; the per-table cached partials are gathered by rid into
      // each unit's contiguous run (no bias here — table 0's cache
      // carries it).
      core::PhaseScope phase(ctx.report, "first_layer_fwd");
      const la::Kernels& kern = la::Active();
      a1s_.Shape(st->strip_rows, b, nh_, /*key_cols=*/0, st->start_row);
      exec::ParallelFor(
          threads, static_cast<int64_t>(st->num_strips), /*align=*/1,
          [&](exec::Range rg, int) {
            for (int64_t s = rg.begin; s < rg.end; ++s) {
              const auto sp = static_cast<size_t>(s);
              const size_t rows = st->RowsInStrip(sp);
              const size_t row0 = st->StripStart(sp);
              double* a1 = a1s_.MutableCol(sp, 0);
              kern.gemm_strip(mlp_.w[0].data(), d_, st->Col(sp, 1),
                              st->strip_rows, nh_, rows, ds_, a1,
                              st->strip_rows, /*trans_b=*/false,
                              /*accumulate=*/false);
              for (size_t i = 0; i < q_; ++i) {
                const double* c = caches_[i].c.data();
                const int64_t* rid = ridbuf_[i].data() + row0;
                for (size_t u = 0; u < nh_; ++u) {
                  double* au = a1 + u * st->strip_rows;
                  for (size_t r = 0; r < rows; ++r) {
                    au[r] += c[static_cast<size_t>(rid[r]) * nh_ + u];
                  }
                }
              }
              CountMults(rows * nh_ * ds_);
              CountAdds(rows * nh_ * ds_ + rows * nh_ * q_);
            }
          });
    } else {
      a1_.Reshape(b, nh_);
      core::PhaseScope phase(ctx.report, "first_layer_fwd");
      exec::ParallelFor(
          threads, static_cast<int64_t>(b), /*align=*/1,
          [&](exec::Range rg, int) {
            la::GemmNTSliceRows(xs_, mlp_.w[0], 0, &a1_,
                                static_cast<size_t>(rg.begin),
                                static_cast<size_t>(rg.end),
                                /*accumulate=*/false);
            for (int64_t r = rg.begin; r < rg.end; ++r) {
              const int64_t* keys = s_rows.KeysOf(static_cast<size_t>(r));
              double* a1_row = a1_.Row(static_cast<size_t>(r)).data();
              for (size_t i = 0; i < q_; ++i) {
                const int64_t rid = keys[rel_->FkKeyIndex(i)];
                const double* c_row =
                    caches_[i].c.Row(static_cast<size_t>(rid)).data();
                for (size_t u = 0; u < nh_; ++u) a1_row[u] += c_row[u];
              }
            }
            CountAdds(static_cast<uint64_t>(rg.size()) * nh_ * q_);
          });
    }

    {
      core::PhaseScope phase(ctx.report, "upper_layers");
      epoch_sse_ += st != nullptr
                        ? engine_->StepStrips(a1s_, y_.data(), threads, &d1s_)
                        : engine_->Step(a1_, y_.data(), &delta1_);
    }
    if (st != nullptr) {
      // The PG_R sweep below (and the grouped R1 sums) read delta1 a row
      // at a time: the one transpose the factorized strip path keeps.
      core::PhaseScope phase(ctx.report, "pack");
      delta1_.Reshape(b, nh_);
      core::pipeline::internal::UnpackStripsToRows(d1s_, delta1_.data());
    }

    // ---- Factorized backward (Sec. VI-A3 / Eq. 32): the W1 gradient
    // [PG_S | PG_R1 | ... ] is formed from the base relations directly;
    // identical arithmetic, but x_Ri is never expanded to N rows on
    // disk. Parallelized over column morsels of grad0: every worker owns
    // a disjoint column range and accumulates it in the serial row
    // order, so the gradient is bit-identical for any thread count.
    if (opt_.grouped_backward && q_ >= 1) {
      // Extension: per R1 group, sum the deltas first, then one outer
      // product per R1 tuple (nh*(b + |rids|*dR1) ops instead of
      // nh*b*dR1). Computed once, read by every column worker.
      dsums_.assign(groups.size() * nh_, 0.0);
      for (size_t g = 0; g < groups.size(); ++g) {
        const auto& grp = groups[g];
        if (grp.count == 0) continue;
        double* dsum = dsums_.data() + g * nh_;
        for (size_t r = grp.offset; r < grp.offset + grp.count; ++r) {
          la::Axpy(1.0, delta1_.Row(r).data(), dsum, nh_);
        }
      }
    }
    grad0_.SetZero();
    {
      core::PhaseScope phase(ctx.report, "w1_grad");
      const la::Kernels& kern = la::Active();
      exec::ParallelFor(
          threads, static_cast<int64_t>(d_), /*align=*/1,
          [&](exec::Range rg, int) {
            const auto cb = static_cast<size_t>(rg.begin);
            const auto ce = static_cast<size_t>(rg.end);
            // PG_S: columns of the S slice [0, ds) within this morsel.
            if (cb < ds_ && st != nullptr) {
              const size_t slen = std::min(ds_, ce) - cb;
              for (size_t s = 0; s < st->num_strips; ++s) {
                const size_t rows = st->RowsInStrip(s);
                kern.gemm_strip(d1s_.Col(s, 0), d1s_.strip_rows,
                                st->Col(s, 1 + cb), st->strip_rows, nh_,
                                slen, rows, grad0_.data() + cb, d_,
                                /*trans_b=*/true, /*accumulate=*/true);
              }
              CountMults(b * nh_ * slen);
              CountAdds(b * nh_ * slen);
            } else if (cb < ds_) {
              la::GemmTNSliceCols(delta1_, xs_, &grad0_, 0, cb,
                                  std::min(ds_, ce));
            }
            // PG_Ri: the slice of each attribute block inside the
            // morsel. The overlap is loop-invariant over the batch
            // rows, so clip once per table; tables (and whole row
            // sweeps) with no overlap cost this worker nothing.
            std::vector<size_t> lo(q_);
            std::vector<size_t> len(q_, 0);
            bool any_overlap = false;
            for (size_t i = 0; i < q_; ++i) {
              const size_t block_lo = attr_offset_[i];
              const size_t block_hi = block_lo + rel_->dr(i);
              const size_t s = std::max(block_lo, cb);
              const size_t e = std::min(block_hi, ce);
              if (s < e) {
                lo[i] = s - block_lo;
                len[i] = e - s;
                any_overlap = true;
              }
            }
            if (!any_overlap) return;
            const size_t row_first_table = opt_.grouped_backward ? 1 : 0;
            if (opt_.grouped_backward && len[0] > 0) {
              for (size_t g = 0; g < groups.size(); ++g) {
                const auto& grp = groups[g];
                if (grp.count == 0) continue;
                const auto xr = views[0].FeaturesOf(grp.rid);
                la::AddOuter(1.0, dsums_.data() + g * nh_, nh_,
                             xr.data() + lo[0], len[0], &grad0_, 0,
                             attr_offset_[0] + lo[0]);
              }
            }
            bool any_row_table = false;
            for (size_t i = row_first_table; i < q_; ++i) {
              if (len[i] > 0) any_row_table = true;
            }
            if (!any_row_table) return;
            for (size_t r = 0; r < b; ++r) {
              const int64_t* keys = s_rows.KeysOf(r);
              for (size_t i = row_first_table; i < q_; ++i) {
                if (len[i] == 0) continue;
                const auto xr =
                    views[i].FeaturesOf(keys[rel_->FkKeyIndex(i)]);
                la::AddOuter(1.0, delta1_.Row(r).data(), nh_,
                             xr.data() + lo[i], len[i], &grad0_, 0,
                             attr_offset_[i] + lo[i]);
              }
            }
          });
    }
    engine_->UpdateW0(grad0_);
    ++version_;  // engine updated b0 and layers >= 1; W1 updated above
    return Status::OK();
  }

  Result<bool> EndIteration(const PipelineContext&, int epoch) override {
    if (!std::isfinite(epoch_sse_)) {
      return Status::OutOfRange(
          "NN: objective is not finite after epoch " +
          std::to_string(epoch + 1) + " of " + std::to_string(opt_.epochs) +
          " (SGD diverged; lower --lr)");
    }
    return false;  // NN always runs the full epoch budget
  }

  double Objective() const override {
    return epoch_sse_ / (2.0 * static_cast<double>(n_));
  }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    // Cross-epoch state: every layer's weights and biases, the momentum
    // velocities, the dropout generator cursor, and the epoch objective.
    // version_ rides along as a bit pattern so restored partial-feature
    // caches are invalidated exactly as an uninterrupted run would have
    // them (stamps never match a bumped version). The caches and scratch
    // matrices rebuild lazily per batch and must not be visited.
    for (auto& w : mlp_.w) visit(w.data(), w.rows() * w.cols());
    for (auto& b : mlp_.b) visit(b.data(), b.size());
    for (auto& v : engine_->vel_w()) visit(v.data(), v.rows() * v.cols());
    for (auto& v : engine_->vel_b()) visit(v.data(), v.size());
    if (Rng* rng = engine_->dropout_rng()) {
      double st[Rng::kStateDoubles];
      rng->SaveState(st);
      visit(st, Rng::kStateDoubles);
      rng->RestoreState(st);
    }
    double version_bits = 0.0;
    std::memcpy(&version_bits, &version_, sizeof(version_bits));
    visit(&version_bits, 1);
    std::memcpy(&version_, &version_bits, sizeof(version_));
    visit(&epoch_sse_, 1);
  }

  Mlp&& TakeMlp() && { return std::move(mlp_); }

 private:
  const join::NormalizedRelations* rel_ = nullptr;
  bool factorized_ = false;
  size_t q_ = 0, ds_ = 0, d_ = 0, nh_ = 0;
  int64_t n_ = 0;
  std::vector<size_t> attr_offset_;

  Mlp mlp_;
  std::unique_ptr<internal::BackpropEngine> engine_;
  la::Matrix xs_;      // batch x dS (factorized: never widened to d)
  la::Matrix a1_;      // batch x nh (row path)
  la::Matrix delta1_;  // batch x nh (row path; F's PG_R sweep)
  la::Matrix grad0_;
  std::vector<double> y_;
  std::vector<double> dsums_;  // grouped-backward scratch, n_groups x nh
  storage::ColumnStrips a1s_;  // first-layer pre-activations (strip path)
  storage::ColumnStrips d1s_;  // dE/dA1 as strips (strip path)
  std::vector<std::vector<int64_t>> ridbuf_;  // per-table rids, strip path
  std::vector<PartialCache> caches_;
  std::vector<std::vector<int64_t>> stale_;  // rids to refill per batch
  uint64_t version_ = 1;
  double epoch_sse_ = 0.0;
  // Last: the inherited RuntimeOptions block (unused by the program)
  // makes it ~250 bytes, which would push every member above into long
  // displacements in the accumulate loops.
  NnOptions opt_;
};

Result<Mlp> TrainNnWith(const join::NormalizedRelations& rel,
                        const NnOptions& options, core::Algorithm algorithm,
                        storage::BufferPool* pool,
                        core::TrainReport* report) {
  NnProgram program(options);
  FML_RETURN_IF_ERROR(core::pipeline::RunTraining(
      rel, algorithm, core::pipeline::StrategyOptions(options), &program,
      pool, report));
  return std::move(program).TakeMlp();
}

}  // namespace

Result<Mlp> TrainNnMaterialized(const join::NormalizedRelations& rel,
                                const NnOptions& options,
                                storage::BufferPool* pool,
                                core::TrainReport* report) {
  return TrainNnWith(rel, options, core::Algorithm::kMaterialized, pool,
                     report);
}

Result<Mlp> TrainNnStreaming(const join::NormalizedRelations& rel,
                             const NnOptions& options,
                             storage::BufferPool* pool,
                             core::TrainReport* report) {
  return TrainNnWith(rel, options, core::Algorithm::kStreaming, pool, report);
}

Result<Mlp> TrainNnFactorized(const join::NormalizedRelations& rel,
                              const NnOptions& options,
                              storage::BufferPool* pool,
                              core::TrainReport* report) {
  return TrainNnWith(rel, options, core::Algorithm::kFactorized, pool,
                     report);
}

}  // namespace factorml::nn
