#ifndef FACTORML_LINREG_GRAM_PROGRAM_H_
#define FACTORML_LINREG_GRAM_PROGRAM_H_

// The weighted Gram/cofactor pass both linear families run as a
// core/pipeline ModelProgram. One full pass accumulates the weighted
// normal equations A = X^T W X, b = X^T W z and one family scalar; the
// family then solves (A + l2*I) beta = b. Ridge linear regression is the
// unit-weight case (W = I, z = y, one pass); logistic regression's IRLS
// sets w = p(1-p) and z the working response, every iteration.
//
// The dense path (M/S) pays the full d x d weighted outer product per
// joined tuple. The factorized path mirrors the paper's decompositions:
// per fact tuple it touches only the S slice (S-diagonal block, S slice of
// b) and the per-rid masses (sum w*xs, sum w, sum w*z); the S x Ri cross
// blocks, the Ri-diagonal blocks and the Ri slices of b are deferred to
// one rank-1 update per *attribute* tuple — the classic cofactor
// factorization of linear models over joins.
//
// Under --kernels=simd both paths run on column strips (AccumulateStrips,
// AccumulateFactStrips). On the factorized strips the S-diagonal block
// and S cofactor are strip kernels, logreg's eta a col-dot plus one rid
// gather per table, and the FK1 group structure factors the table-0
// work by run: the table-0 masses and every R1 x Rj cross block (j>=1)
// are summed once per R1 tuple's run instead of once per fact tuple. The
// masses of tables i>=1 and the Ri x Rj blocks with i>=1 have no FK1
// structure and stay per tuple. Op counts are charged with the per-tuple
// formulas either way, so they match the scalar plane exactly.
//
// A family passes its per-tuple weight and target to the Accumulate*
// templates as a lambda, which inlines: the per-tuple and per-strip loops
// gain no virtual call and no std::function.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/opcount.h"
#include "core/pipeline/model_program.h"
#include "la/cholesky.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/ops.h"
#include "obs/metrics.h"

namespace factorml::linreg {

class GramProgram : public core::pipeline::ModelProgram {
 public:
  uint32_t Capabilities() const override {
    return core::pipeline::kFullPass | core::pipeline::kFactorized |
           core::pipeline::kNeedsTarget;
  }

  Status Init(const core::pipeline::PipelineContext& ctx) override {
    rel_ = ctx.rel;
    factorized_ = ctx.factorized();
    d_ = rel_->total_dims();
    ds_ = rel_->ds();
    q_ = rel_->num_joins();
    da_ = d_ + (intercept_ ? 1 : 0);
    n_ = rel_->s.num_rows();
    attr_offset_.resize(q_);
    for (size_t i = 0; i < q_; ++i) {
      attr_offset_[i] = rel_->FeatureOffset(i + 1);
    }
    return Status::OK();
  }

  Status BeginPass(const core::pipeline::PipelineContext& ctx, int, int,
                   int workers) override {
    views_ = ctx.views;
    const auto n_r0 =
        factorized_ ? static_cast<int64_t>((*views_)[0].feats().rows()) : 0;
    // The merged masses stay full-domain; EndPass frees them, so they are
    // reallocated zeroed every pass (slot states offset-add into them).
    Reset(&merged_, exec::Range{0, n_r0});
    slots_.resize(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      // Rid-span contract: size each slot's table-0 per-rid masses to the
      // contiguous rid span that slot actually scans, not the full table.
      Reset(&slots_[static_cast<size_t>(w)],
            core::pipeline::SlotRidSpan(ctx, w, n_r0));
    }
    return Status::OK();
  }

  void MergeWorker(int, int worker) override {
    const Slot& acc = slots_[static_cast<size_t>(worker)];
    merged_.gram.Add(acc.gram);
    for (size_t j = 0; j < da_; ++j) merged_.cvec[j] += acc.cvec[j];
    merged_.scalar += acc.scalar;
    if (!factorized_) return;
    // Table 0 is span-scoped per slot: offset-add into the full-domain
    // merged masses at the slot's span base. Tables i>=1 are full-domain.
    for (size_t i = 0; i < q_; ++i) {
      const size_t off = i == 0 ? acc.rid0 : 0;
      for (size_t r = 0; r < acc.wxsum[i].rows(); ++r) {
        const double* src = acc.wxsum[i].Row(r).data();
        double* dst = merged_.wxsum[i].Row(r + off).data();
        for (size_t j = 0; j < ds_; ++j) dst[j] += src[j];
      }
      for (size_t r = 0; r < acc.wsum[i].size(); ++r) {
        merged_.wsum[i][r + off] += acc.wsum[i][r];
        merged_.wzsum[i][r + off] += acc.wzsum[i][r];
      }
    }
  }

  void VisitSlotState(
      int, int slot,
      const std::function<void(double*, size_t)>& visit) override {
    // Shard-plane wire seam: one slot's normal equations and scalar (and,
    // on the factorized path, its per-rid masses).
    Slot& acc = slots_[static_cast<size_t>(slot)];
    visit(acc.gram.data(), acc.gram.rows() * acc.gram.cols());
    visit(acc.cvec.data(), acc.cvec.size());
    visit(&acc.scalar, 1);
    for (size_t i = 0; i < acc.wsum.size(); ++i) {
      visit(acc.wxsum[i].data(), acc.wxsum[i].rows() * acc.wxsum[i].cols());
      visit(acc.wsum[i].data(), acc.wsum[i].size());
      visit(acc.wzsum[i].data(), acc.wzsum[i].size());
    }
  }

  Status EndPass(const core::pipeline::PipelineContext& ctx, int,
                 int) override {
    la::Matrix& gram = merged_.gram;
    const size_t bias = da_ - 1;  // the intercept column, when enabled
    // Deferred blocks: one rank-1 update per attribute tuple instead of
    // per fact tuple (the I/O and FLOP saving of the factorization).
    for (size_t i = 0; i < merged_.wsum.size(); ++i) {
      const la::Matrix& feats = (*ctx.views)[i].feats();
      const size_t dri = feats.cols();
      const size_t off = attr_offset_[i];
      for (size_t rid = 0; rid < feats.rows(); ++rid) {
        const double sw = merged_.wsum[i][rid];
        if (sw == 0.0) continue;
        const double* xr = feats.Row(rid).data();
        // S x Ri cross block from the weighted per-rid S-slice sums.
        la::AddOuter(1.0, merged_.wxsum[i].Row(rid).data(), ds_, xr, dri,
                     &gram, 0, off);
        // Ri-diagonal block, weighted by the rid's total weight (its match
        // count under unit weight).
        la::AddOuter(sw, xr, dri, xr, dri, &gram, off, off);
        // Ri slice of b from the per-rid weighted target mass.
        la::Axpy(merged_.wzsum[i][rid], xr, merged_.cvec.data() + off, dri);
        if (intercept_) {
          for (size_t j = 0; j < dri; ++j) {
            gram(off + j, bias) += sw * xr[j];
          }
          CountMults(dri);
          CountAdds(dri);
        }
      }
    }
    if (factorized_ && intercept_) {
      // Intercept column, S part and total weight, recovered from the
      // table-0 per-rid masses (no extra per-fact-tuple work).
      for (size_t rid = 0; rid < merged_.wsum[0].size(); ++rid) {
        const double* ws = merged_.wxsum[0].Row(rid).data();
        for (size_t j = 0; j < ds_; ++j) gram(j, bias) += ws[j];
        gram(bias, bias) += merged_.wsum[0][rid];
        merged_.cvec[bias] += merged_.wzsum[0][rid];
        CountAdds(ds_ + 2);
      }
    }
    merged_.wxsum.clear();
    merged_.wsum.clear();
    merged_.wzsum.clear();
    // A is symmetric; cross blocks were accumulated one-sided (upper), so
    // mirror once per pass — exact, like F-GMM's covariance mirroring.
    for (size_t r = 0; r < da_; ++r) {
      for (size_t c = r + 1; c < da_; ++c) gram(c, r) = gram(r, c);
    }
    return Status::OK();
  }

 protected:
  explicit GramProgram(bool intercept) : intercept_(intercept) {}

  /// One accumulator: the weighted normal equations (upper cross blocks
  /// only until EndPass mirrors them), the family scalar, and on the
  /// factorized path the per-rid masses of every attribute table.
  struct Slot {
    la::Matrix gram;                         // da x da
    std::vector<double> cvec;                // da
    double scalar = 0.0;
    size_t rid0 = 0;                         // table-0 rid of mass row 0
    std::vector<la::Matrix> wxsum;           // [i]: nRi x ds, sum w * xs
    std::vector<std::vector<double>> wsum;   // [i][rid] sum w
    std::vector<std::vector<double>> wzsum;  // [i][rid] sum w * z
  };

  /// Dense row-at-a-time path. weigh(x, y, keys, scalar) returns a tuple's
  /// (w, w*z) from its features, target and foreign keys (null here: the
  /// joined row carries every feature) and accrues its share of the
  /// family scalar. With kWeighted false, weigh returns w = 1.0 and the
  /// intercept column charges no weight multiplies: the op counts of a
  /// loop that never multiplies by w (1.0 * x is exact, so are the bits).
  template <bool kWeighted, typename Weigh>
  void AccumulateRows(int worker, const core::pipeline::DenseBlock& block,
                      Weigh&& weigh) {
    Slot& acc = slots_[static_cast<size_t>(worker)];
    for (size_t r = 0; r < block.num_rows; ++r) {
      const double* x = block.X(r);
      const auto [w, wz] = weigh(x, block.Y(r), nullptr, acc.scalar);
      // Full redundancy of the joined representation: every tuple pays
      // the complete weighted d x d outer product.
      la::AddOuter(w, x, d_, x, d_, &acc.gram, 0, 0);
      la::Axpy(wz, x, acc.cvec.data(), d_);
      if (intercept_) {
        for (size_t j = 0; j < d_; ++j) acc.gram(j, d_) += w * x[j];
        acc.gram(d_, d_) += w;
        acc.cvec[d_] += wz;
        if constexpr (kWeighted) CountMults(d_ + 1);
        CountAdds(d_ + 2);
      }
    }
  }

  /// Batched (--kernels=simd) twin of AccumulateRows: whole column strips
  /// through the la/ batch kernels. weigh(cols, ncols, rows, y, rids,
  /// scalar) returns the strip's weights (nullptr: unit weight) and w*z
  /// column; here cols holds all d features and rids is null. Each
  /// kernel call is charged the exact op-count stream of the per-row loop
  /// it replaces, so the measured counts are invariant across backends;
  /// only the summation order inside each accumulator entry moves.
  template <typename Weigh>
  void AccumulateStrips(int worker, const core::pipeline::DenseBlock& block,
                        Weigh&& weigh) {
    Slot& acc = slots_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::ColumnStrips& st = *block.strips;
    const la::Kernels& kern = la::Active();
    std::vector<const double*> cols(d_);
    std::vector<double> colsum(intercept_ ? d_ : 0);
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      for (size_t j = 0; j < d_; ++j) cols[j] = block.StripX(s, j);
      const auto [w, wz] = weigh(cols.data(), d_, rows, block.StripY(s),
                                 nullptr, acc.scalar);
      // A += X^T W X and b += X^T W z — the AddOuter/Axpy streams.
      kern.syrk_strip(cols.data(), d_, rows, w, acc.gram.data(),
                      acc.gram.cols());
      CountMults(rows * (d_ * d_ + d_));
      CountAdds(rows * d_ * d_);
      kern.colsum_strip(cols.data(), d_, rows, wz, acc.cvec.data());
      CountMults(rows * d_);
      CountAdds(rows * d_);
      if (intercept_) {
        std::fill(colsum.begin(), colsum.end(), 0.0);
        kern.colsum_strip(cols.data(), d_, rows, w, colsum.data());
        for (size_t j = 0; j < d_; ++j) acc.gram(j, d_) += colsum[j];
        double wsum = static_cast<double>(rows);
        if (w != nullptr) {
          wsum = 0.0;
          kern.colsum_strip(&w, 1, rows, nullptr, &wsum);
          CountMults(rows * (d_ + 1));
        }
        double wzsum = 0.0;
        kern.colsum_strip(&wz, 1, rows, nullptr, &wzsum);
        acc.gram(d_, d_) += wsum;
        acc.cvec[d_] += wzsum;
        CountAdds(rows * (d_ + 2));
      }
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  /// Factorized path: `weigh` as for AccumulateRows, given the fact
  /// tuple's S slice and foreign keys.
  template <typename Weigh>
  void AccumulateFacts(int worker,
                       const core::pipeline::FactorizedBlock& block,
                       Weigh&& weigh) {
    Slot& acc = slots_[static_cast<size_t>(worker)];
    const storage::RowBatch& s_rows = *block.s_rows;
    for (size_t r = 0; r < s_rows.num_rows; ++r) {
      // kNeedsTarget: S feature column 0 is Y, the S slice follows it.
      const double* xs = s_rows.feats.Row(r).data() + 1;
      const int64_t* keys = s_rows.KeysOf(r);
      const auto [w, wz] = weigh(xs, s_rows.feats(r, 0), keys, acc.scalar);
      // Per fact tuple: only the S-diagonal block and per-rid masses.
      la::AddOuter(w, xs, ds_, xs, ds_, &acc.gram, 0, 0);
      la::Axpy(wz, xs, acc.cvec.data(), ds_);
      for (size_t i = 0; i < q_; ++i) {
        const auto rid = static_cast<size_t>(keys[rel_->FkKeyIndex(i)]);
        // Table-0 per-rid masses are span-relative; i>=1 keep full rids.
        const size_t arid = i == 0 ? rid - acc.rid0 : rid;
        la::Axpy(w, xs, acc.wxsum[i].Row(arid).data(), ds_);
        acc.wsum[i][arid] += w;
        acc.wzsum[i][arid] += wz;
        CountAdds(2);
        // Attr-attr cross blocks (multi-way joins only) have no
        // single-table factorization; accumulate them per fact tuple like
        // F-GMM's covariance cross blocks.
        if (i + 1 < q_) {
          const auto xr_i =
              (*views_)[i].FeaturesOf(static_cast<int64_t>(rid));
          for (size_t j = i + 1; j < q_; ++j) {
            const auto rid_j = keys[rel_->FkKeyIndex(j)];
            const auto xr_j = (*views_)[j].FeaturesOf(rid_j);
            la::AddOuter(w, xr_i.data(), xr_i.size(), xr_j.data(),
                         xr_j.size(), &acc.gram, attr_offset_[i],
                         attr_offset_[j]);
          }
        }
      }
    }
  }

  /// Batched (--kernels=simd) twin of AccumulateFacts over the driver's
  /// S-slice strips and FK1 runs. weigh is AccumulateStrips', given the
  /// ds S-slice columns and, in rids[i], the strip's table-i rids. The
  /// S-diagonal block and S cofactor are strip kernels; the table-0 masses
  /// and the R1 x Rj cross blocks are summed once per FK1 run (u_j =
  /// sum_t w_t x_Rj[rid_j(t)], then one outer product with x_R1[rid1]);
  /// the masses of tables i>=1 and the Ri x Rj blocks with i>=1 stay per
  /// tuple. Op counts are charged per strip or run with the per-tuple
  /// formulas of AccumulateFacts, so they match it under every schedule.
  template <typename Weigh>
  void AccumulateFactStrips(int worker,
                            const core::pipeline::FactorizedBlock& block,
                            Weigh&& weigh) {
    Slot& acc = slots_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::ColumnStrips& st = *block.s_strips;
    const storage::RowBatch& s_rows = *block.s_rows;
    const std::vector<join::JoinGroup>& groups = *block.groups;
    const la::Kernels& kern = la::Active();
    const size_t lda = acc.gram.cols();
    const size_t dr0 = rel_->dr(0);
    // Per-table rid columns of the block (uncharged index movement, like
    // the scalar path's KeysOf reads).
    std::vector<std::vector<int64_t>> rid_cols(q_);
    for (auto& col : rid_cols) col.resize(s_rows.num_rows);
    for (size_t r = 0; r < s_rows.num_rows; ++r) {
      const int64_t* keys = s_rows.KeysOf(r);
      for (size_t i = 0; i < q_; ++i) {
        rid_cols[i][r] = keys[rel_->FkKeyIndex(i)];
      }
    }
    std::vector<const double*> cols(ds_), run_cols(ds_);
    std::vector<const int64_t*> rids(q_);
    // The strip's gathered Rj rows (rows x drj, j>=1), the per-run
    // weighted sums u_j, and unit weights for the run reduction.
    std::vector<std::vector<double>> xr(q_), u(q_);
    for (size_t j = 1; j < q_; ++j) {
      const size_t drj = (*views_)[j].feats().cols();
      xr[j].resize(st.strip_rows * drj);
      u[j].resize(drj);
    }
    std::vector<double> ones(q_ > 1 ? st.strip_rows : 0, 1.0);
    size_t first_group = 0;
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      const size_t row0 = st.StripStart(s);
      // kNeedsTarget: S feature column 0 is Y, the S slice follows it.
      for (size_t j = 0; j < ds_; ++j) cols[j] = st.Col(s, 1 + j);
      for (size_t i = 0; i < q_; ++i) rids[i] = rid_cols[i].data() + row0;
      const auto [w, wz] =
          weigh(cols.data(), ds_, rows, st.Col(s, 0), rids.data(), acc.scalar);
      // S-diagonal block and S slice of b: the AddOuter/Axpy streams.
      kern.syrk_strip(cols.data(), ds_, rows, w, acc.gram.data(), lda);
      CountMults(rows * (ds_ * ds_ + ds_));
      CountAdds(rows * ds_ * ds_);
      kern.colsum_strip(cols.data(), ds_, rows, wz, acc.cvec.data());
      CountMults(rows * ds_);
      CountAdds(rows * ds_);
      // Tables i>=1: per-tuple masses and Ri x Rj (j>i) cross blocks.
      for (size_t i = 1; i < q_; ++i) {
        const size_t dri = rel_->dr(i);
        for (size_t r = 0; r < rows; ++r) {
          const double wr = w != nullptr ? w[r] : 1.0;
          kern.axpy(wr, s_rows.feats.Row(row0 + r).data() + 1,
                    acc.wxsum[i].Row(static_cast<size_t>(rids[i][r])).data(),
                    ds_);
          const double* xr_i = (*views_)[i].FeaturesOf(rids[i][r]).data();
          for (size_t j = i + 1; j < q_; ++j) {
            kern.add_outer(wr, xr_i, dri,
                           (*views_)[j].FeaturesOf(rids[j][r]).data(),
                           rel_->dr(j),
                           acc.gram.data() + attr_offset_[i] * lda +
                               attr_offset_[j],
                           lda);
          }
        }
        kern.scatter_add_strip(rids[i], w, rows, acc.wsum[i].data());
        kern.scatter_add_strip(rids[i], wz, rows, acc.wzsum[i].data());
        CountMults(rows * ds_);
        CountAdds(rows * (ds_ + 2));
        for (size_t j = i + 1; j < q_; ++j) {
          CountMults(rows * (dri * rel_->dr(j) + dri));
          CountAdds(rows * dri * rel_->dr(j));
        }
      }
      // Gather the strip's Rj rows once for the run reductions below.
      for (size_t j = 1; j < q_; ++j) {
        const la::Matrix& feats = (*views_)[j].feats();
        const size_t drj = feats.cols();
        std::fill(xr[j].begin(), xr[j].begin() + rows * drj, 0.0);
        kern.gather_add_rows_strip(feats.data(), drj, rids[j], rows, drj,
                                   xr[j].data(), drj);
      }
      // Table 0 per FK1 run: the masses land at the run's span-relative
      // rid; each R1 x Rj cross block is one outer product per run.
      while (first_group < groups.size() &&
             groups[first_group].offset + groups[first_group].count <= row0) {
        ++first_group;
      }
      for (size_t g = first_group;
           g < groups.size() && groups[g].offset < row0 + rows; ++g) {
        const size_t lo = std::max(groups[g].offset, row0);
        const size_t hi =
            std::min(groups[g].offset + groups[g].count, row0 + rows);
        if (lo >= hi) continue;
        const size_t rn = hi - lo;
        const size_t ll = lo - row0;  // strip-local run start
        const size_t arid = static_cast<size_t>(groups[g].rid) - acc.rid0;
        const double* wrun = w != nullptr ? w + ll : nullptr;
        for (size_t j = 0; j < ds_; ++j) run_cols[j] = cols[j] + ll;
        kern.colsum_strip(run_cols.data(), ds_, rn, wrun,
                          acc.wxsum[0].Row(arid).data());
        if (wrun != nullptr) {
          kern.colsum_strip(&wrun, 1, rn, nullptr, &acc.wsum[0][arid]);
        } else {
          acc.wsum[0][arid] += static_cast<double>(rn);
        }
        const double* wzrun = wz + ll;
        kern.colsum_strip(&wzrun, 1, rn, nullptr, &acc.wzsum[0][arid]);
        CountMults(rn * ds_);
        CountAdds(rn * (ds_ + 2));
        if (q_ < 2) continue;
        const auto x1 = (*views_)[0].FeaturesOf(groups[g].rid);
        for (size_t j = 1; j < q_; ++j) {
          const size_t drj = u[j].size();
          kern.gemm_strip(wrun != nullptr ? wrun : ones.data(), rn,
                          xr[j].data() + ll * drj, drj, 1, drj, rn,
                          u[j].data(), drj, /*trans_b=*/false,
                          /*accumulate=*/false);
          kern.add_outer(1.0, x1.data(), dr0, u[j].data(), drj,
                         acc.gram.data() + attr_offset_[0] * lda +
                             attr_offset_[j],
                         lda);
          CountMults(rn * (dr0 * drj + dr0));
          CountAdds(rn * dr0 * drj);
        }
      }
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  /// Solves (A + l2*I) beta = b into `beta` (da entries, bias last and
  /// unpenalized), jittering the diagonal if A is not quite SPD. Normal
  /// equations with a non-finite entry (a nan/inf data cell, or a
  /// diverged iterate) are OutOfRange, naming the family, the iteration
  /// and the pass, instead of a Cholesky failure or a nan objective.
  Status SolveRidge(int iter, double l2, std::vector<double>* beta) const {
    const la::Matrix& gram = merged_.gram;
    const bool finite =
        std::isfinite(merged_.scalar) &&
        std::all_of(gram.data(), gram.data() + gram.rows() * gram.cols(),
                    [](double v) { return std::isfinite(v); }) &&
        std::all_of(merged_.cvec.begin(), merged_.cvec.end(),
                    [](double v) { return std::isfinite(v); });
    if (!finite) {
      return Status::OutOfRange(
          std::string(Name()) +
          ": normal equations are not finite after iteration " +
          std::to_string(iter + 1) + " of " +
          std::to_string(MaxIterations()) + " (" + PassName(0) +
          " pass; check the data for nan/inf cells)");
    }
    la::Matrix a = gram;
    for (size_t j = 0; j < d_; ++j) a(j, j) += l2;
    la::Cholesky chol;
    FML_RETURN_IF_ERROR(chol.FactorWithJitter(a));
    beta->assign(da_, 0.0);
    chol.Solve(merged_.cvec.data(), beta->data());
    return Status::OK();
  }

  // Hot members first: the accumulate loops above read these.
  std::vector<Slot> slots_;
  const join::NormalizedRelations* rel_ = nullptr;
  const std::vector<join::AttributeTableView>* views_ = nullptr;
  std::vector<size_t> attr_offset_;
  size_t d_ = 0, ds_ = 0, q_ = 0, da_ = 0;
  bool intercept_ = false;
  bool factorized_ = false;
  int64_t n_ = 0;
  Slot merged_;  // the slots' sum in worker order; EndPass completes it

 private:
  /// Zeroes `slot` at the current shapes; on the factorized path its
  /// table-0 masses cover `span0`, every other table's the full table.
  void Reset(Slot* slot, exec::Range span0) const {
    slot->gram.Resize(da_, da_);  // Resize zero-fills
    slot->cvec.assign(da_, 0.0);
    slot->scalar = 0.0;
    slot->rid0 = static_cast<size_t>(span0.begin);
    const size_t tables = factorized_ ? q_ : 0;
    slot->wxsum.resize(tables);
    slot->wsum.resize(tables);
    slot->wzsum.resize(tables);
    for (size_t i = 0; i < tables; ++i) {
      const size_t n_ri = i == 0 ? static_cast<size_t>(span0.size())
                                 : (*views_)[i].feats().rows();
      slot->wxsum[i].Resize(n_ri, ds_);
      slot->wsum[i].assign(n_ri, 0.0);
      slot->wzsum[i].assign(n_ri, 0.0);
    }
  }
};

/// Max absolute coefficient difference of two linear models (bias
/// included): both families' MaxAbsDiff.
template <typename Model>
double CoefficientMaxAbsDiff(const Model& a, const Model& b) {
  FML_CHECK_EQ(a.w.size(), b.w.size());
  double m = std::fabs(a.bias - b.bias);
  for (size_t j = 0; j < a.w.size(); ++j) {
    m = std::max(m, std::fabs(a.w[j] - b.w[j]));
  }
  return m;
}

}  // namespace factorml::linreg

#endif  // FACTORML_LINREG_GRAM_PROGRAM_H_
