// Logistic regression as a core/pipeline ModelProgram: IRLS over the
// factorized Gram. Every iteration is one "irls" full pass accumulating
// the weighted normal equations A = X^T W X, b = X^T W z with
// W = diag(s_i), s_i = p_i (1 - p_i), z_i = eta_i + (y_i - p_i) / s_i —
// which is linreg's Gram/cofactor pass with per-tuple weight s_i and
// target z_i. The factorized path therefore reuses linreg's cofactor
// deferral verbatim, weighted: per fact tuple only the S-diagonal block
// and weighted per-rid masses (sum s, sum s*xs, sum s*z) are touched; the
// S x Ri cross, Ri-diagonal and Ri-cofactor blocks become one rank-1
// update per *attribute* tuple at pass end. The response
// eta = beta . x + bias is itself factorized: per-rid dot products
// beta_Ri . xr are computed once per R tuple per pass (BeginPass), so a
// fact tuple costs O(dS + q) instead of O(d) — the cursor plane only ever
// hands the model normalized rows, proving the strategy/model split
// survived the I/O refactor.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/opcount.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "la/cholesky.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "logreg/logreg.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace factorml::logreg {

namespace {

using core::pipeline::DenseBlock;
using core::pipeline::FactorizedBlock;
using core::pipeline::InvalidOption;
using core::pipeline::PipelineContext;
using la::Matrix;

constexpr double kProbClamp = 1e-12;   // keeps log() finite
constexpr double kWeightFloor = 1e-10; // keeps z = eta + (y-p)/s finite

class LogregProgram final : public core::pipeline::ModelProgram {
 public:
  explicit LogregProgram(const LogregOptions& options) : opt_(options) {}

  const char* Name() const override { return "LOGREG"; }
  const char* TempStem() const override { return "logreg"; }
  uint32_t Capabilities() const override {
    return core::pipeline::kFullPass | core::pipeline::kFactorized |
           core::pipeline::kNeedsTarget;
  }
  Status ValidateOptions(const join::NormalizedRelations&) const override {
    if (opt_.max_iters < 1) {
      return InvalidOption("logreg", "max_iters", "iters", ">= 1",
                           opt_.max_iters);
    }
    if (!(opt_.l2 >= 0.0) || !std::isfinite(opt_.l2)) {
      return InvalidOption("logreg", "l2", "l2", "finite and >= 0", opt_.l2);
    }
    if (!std::isfinite(opt_.tol)) {
      return InvalidOption("logreg", "tol", "tol", "finite", opt_.tol);
    }
    return Status::OK();
  }
  int MaxIterations() const override { return opt_.max_iters; }
  const char* PassName(int) const override { return "irls"; }

  Status Init(const PipelineContext& ctx) override {
    rel_ = ctx.rel;
    factorized_ = ctx.factorized();
    d_ = rel_->total_dims();
    ds_ = rel_->ds();
    q_ = rel_->num_joins();
    da_ = d_ + (opt_.intercept ? 1 : 0);
    n_ = rel_->s.num_rows();
    attr_offset_.resize(q_);
    for (size_t i = 0; i < q_; ++i) attr_offset_[i] = rel_->FeatureOffset(i + 1);
    beta_.assign(da_, 0.0);  // p = 0.5 everywhere: the canonical IRLS start
    gram_.Resize(da_, da_);
    cvec_.assign(da_, 0.0);
    return Status::OK();
  }

  Status BeginPass(const PipelineContext& ctx, int, int, int workers) override {
    views_ = ctx.views;
    gram_.Resize(da_, da_);  // Resize zero-fills: fresh normal equations
    cvec_.assign(da_, 0.0);
    nll_ = 0.0;
    if (factorized_) {
      // eta's attribute part, once per R tuple per pass: the same
      // per-attribute-tuple reuse the Gram deferral exploits.
      rid_dot_.resize(q_);
      for (size_t i = 0; i < q_; ++i) {
        const Matrix& feats = (*ctx.views)[i].feats();
        const size_t n_ri = feats.rows();
        const size_t dri = feats.cols();
        rid_dot_[i].resize(n_ri);
        for (size_t rid = 0; rid < n_ri; ++rid) {
          rid_dot_[i][rid] = la::Dot(feats.Row(rid).data(),
                                     beta_.data() + attr_offset_[i], dri);
        }
      }
    }
    if (factorized_) {
      // Rid-span contract: size each slot's table-0 per-rid masses to the
      // contiguous rid span that slot actually scans, not the full table.
      const auto n_r0 = static_cast<int64_t>((*ctx.views)[0].feats().rows());
      slot_spans_.resize(static_cast<size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        slot_spans_[static_cast<size_t>(w)] =
            core::pipeline::SlotRidSpan(ctx, w, n_r0);
      }
      // Merged per-rid masses stay full-domain; EndPass clears them, so
      // reallocate zeroed every pass (slot states offset-add into them).
      wxsum_.resize(q_);
      wsum_.resize(q_);
      wzsum_.resize(q_);
      for (size_t i = 0; i < q_; ++i) {
        const size_t n_ri = (*ctx.views)[i].feats().rows();
        wxsum_[i].Resize(n_ri, ds_);
        wsum_[i].assign(n_ri, 0.0);
        wzsum_[i].assign(n_ri, 0.0);
      }
    }
    acc_.resize(static_cast<size_t>(workers));
    for (size_t w = 0; w < acc_.size(); ++w) {
      Acc& acc = acc_[w];
      acc.gram.Resize(da_, da_);
      acc.cvec.assign(da_, 0.0);
      acc.nll = 0.0;
      if (factorized_) {
        acc.wsum.resize(q_);
        acc.wxsum.resize(q_);
        acc.wzsum.resize(q_);
        for (size_t i = 0; i < q_; ++i) {
          const size_t n_ri =
              i == 0 ? static_cast<size_t>(slot_spans_[w].size())
                     : (*ctx.views)[i].feats().rows();
          acc.wxsum[i].Resize(n_ri, ds_);
          acc.wsum[i].assign(n_ri, 0.0);
          acc.wzsum[i].assign(n_ri, 0.0);
        }
      }
    }
    return Status::OK();
  }

  void AccumulateDense(int, int worker, const DenseBlock& block) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    if (block.strips != nullptr) {
      AccumulateDenseStrips(worker, block);
      return;
    }
    for (size_t r = 0; r < block.num_rows; ++r) {
      const double* x = block.X(r);
      const double y = block.Y(r);
      const double eta =
          la::Dot(x, beta_.data(), d_) + (opt_.intercept ? beta_[d_] : 0.0);
      const auto [s, z] = Reweight(eta, y, &acc.nll);
      // Full redundancy of the joined representation: every tuple pays
      // the complete weighted d x d outer product.
      la::AddOuter(s, x, d_, x, d_, &acc.gram, 0, 0);
      la::Axpy(s * z, x, acc.cvec.data(), d_);
      CountMults(1);
      if (opt_.intercept) {
        for (size_t j = 0; j < d_; ++j) acc.gram(j, d_) += s * x[j];
        acc.gram(d_, d_) += s;
        acc.cvec[d_] += s * z;
        CountMults(d_ + 1);
        CountAdds(d_ + 2);
      }
    }
  }

  /// Batched (--kernels=simd) twin of the dense row loop. The linear
  /// response and the weighted normal equations go through the la/ batch
  /// kernels; Reweight stays per-row so the exp/log stream (and its op
  /// charges) is identical to the scalar path. Each kernel is charged the
  /// exact op counts of the per-row loop it replaces.
  void AccumulateDenseStrips(int worker, const DenseBlock& block) {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::ColumnStrips& st = *block.strips;
    const la::Kernels& kern = la::Active();
    const double bias = opt_.intercept ? beta_[d_] : 0.0;
    std::vector<const double*> cols(d_);
    std::vector<double> eta(st.strip_rows);
    std::vector<double> sw(st.strip_rows);
    std::vector<double> sz(st.strip_rows);
    std::vector<double> colsum(opt_.intercept ? d_ : 0);
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      for (size_t j = 0; j < d_; ++j) cols[j] = block.StripX(s, j);
      const double* y = block.StripY(s);
      // eta = X beta (+ bias) — the per-row Dot stream, batched.
      kern.col_dot_strip(cols.data(), d_, rows, beta_.data(), eta.data());
      CountMults(rows * d_);
      CountAdds(rows * d_);
      for (size_t r = 0; r < rows; ++r) {
        const auto [w, z] = Reweight(eta[r] + bias, y[r], &acc.nll);
        sw[r] = w;
        sz[r] = w * z;
      }
      CountMults(rows);  // the per-row s * z products
      // A += X^T W X and b += X^T W z — the weighted AddOuter/Axpy streams.
      kern.syrk_strip(cols.data(), d_, rows, sw.data(), acc.gram.data(),
                      acc.gram.cols());
      CountMults(rows * (d_ * d_ + d_));
      CountAdds(rows * d_ * d_);
      kern.colsum_strip(cols.data(), d_, rows, sz.data(), acc.cvec.data());
      CountMults(rows * d_);
      CountAdds(rows * d_);
      if (opt_.intercept) {
        std::fill(colsum.begin(), colsum.end(), 0.0);
        kern.colsum_strip(cols.data(), d_, rows, sw.data(), colsum.data());
        for (size_t j = 0; j < d_; ++j) acc.gram(j, d_) += colsum[j];
        double ssum = 0.0;
        double szsum = 0.0;
        const double* swp = sw.data();
        const double* szp = sz.data();
        kern.colsum_strip(&swp, 1, rows, nullptr, &ssum);
        kern.colsum_strip(&szp, 1, rows, nullptr, &szsum);
        acc.gram(d_, d_) += ssum;
        acc.cvec[d_] += szsum;
        CountMults(rows * (d_ + 1));
        CountAdds(rows * (d_ + 2));
      }
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  void AccumulateFactorized(int, int worker,
                            const FactorizedBlock& block) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    const storage::RowBatch& s_rows = *block.s_rows;
    const size_t y_off = 1;  // kNeedsTarget: S feature column 0 is Y
    for (size_t r = 0; r < s_rows.num_rows; ++r) {
      const double* xs = s_rows.feats.Row(r).data() + y_off;
      const double y = s_rows.feats(r, 0);
      const int64_t* keys = s_rows.KeysOf(r);
      // Factorized response: S part per tuple, attribute parts from the
      // per-rid dot cache (one add per join).
      double eta =
          la::Dot(xs, beta_.data(), ds_) + (opt_.intercept ? beta_[d_] : 0.0);
      for (size_t i = 0; i < q_; ++i) {
        eta += rid_dot_[i][static_cast<size_t>(keys[rel_->FkKeyIndex(i)])];
      }
      CountAdds(q_);
      const auto [s, z] = Reweight(eta, y, &acc.nll);
      const double sz = s * z;
      CountMults(1);
      // Per fact tuple: only the S-diagonal block and weighted per-rid
      // masses — the linreg deferral with weight s and target z.
      la::AddOuter(s, xs, ds_, xs, ds_, &acc.gram, 0, 0);
      la::Axpy(sz, xs, acc.cvec.data(), ds_);
      const auto base0 = static_cast<size_t>(
          slot_spans_[static_cast<size_t>(worker)].begin);
      for (size_t i = 0; i < q_; ++i) {
        const auto rid = static_cast<size_t>(keys[rel_->FkKeyIndex(i)]);
        // Table-0 per-rid masses are span-relative; i>=1 keep full rids.
        const size_t arid = i == 0 ? rid - base0 : rid;
        la::Axpy(s, xs, acc.wxsum[i].Row(arid).data(), ds_);
        acc.wsum[i][arid] += s;
        acc.wzsum[i][arid] += sz;
        CountAdds(2);
        // Attr-attr cross blocks (multi-way joins only) have no
        // single-table factorization; accumulate them per fact tuple,
        // weighted, like linreg.
        if (i + 1 < q_) {
          const auto xr_i =
              (*views_)[i].FeaturesOf(static_cast<int64_t>(rid));
          for (size_t j = i + 1; j < q_; ++j) {
            const auto rid_j = keys[rel_->FkKeyIndex(j)];
            const auto xr_j = (*views_)[j].FeaturesOf(rid_j);
            la::AddOuter(s, xr_i.data(), xr_i.size(), xr_j.data(),
                         xr_j.size(), &acc.gram, attr_offset_[i],
                         attr_offset_[j]);
          }
        }
      }
    }
  }

  void MergeWorker(int, int worker) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    gram_.Add(acc.gram);
    for (size_t j = 0; j < da_; ++j) cvec_[j] += acc.cvec[j];
    nll_ += acc.nll;
    if (factorized_) {
      // Table 0 is span-scoped per slot: offset-add into the full-domain
      // merged masses at the slot's span base. Tables i>=1 are full-domain.
      const auto off0 =
          static_cast<size_t>(slot_spans_[static_cast<size_t>(worker)].begin);
      for (size_t i = 0; i < q_; ++i) {
        const size_t off = i == 0 ? off0 : 0;
        for (size_t r = 0; r < static_cast<size_t>(acc.wxsum[i].rows()); ++r) {
          const double* src = acc.wxsum[i].Row(r).data();
          double* dst = wxsum_[i].Row(r + off).data();
          for (size_t j = 0; j < ds_; ++j) dst[j] += src[j];
        }
        for (size_t r = 0; r < acc.wsum[i].size(); ++r) {
          wsum_[i][r + off] += acc.wsum[i][r];
          wzsum_[i][r + off] += acc.wzsum[i][r];
        }
      }
    }
  }

  void VisitSlotState(
      int, int slot,
      const std::function<void(double*, size_t)>& visit) override {
    // Shard-plane wire seam: one slot's weighted normal equations (and,
    // on the factorized path, its weighted per-rid masses).
    Acc& acc = acc_[static_cast<size_t>(slot)];
    visit(acc.gram.data(), acc.gram.rows() * acc.gram.cols());
    visit(acc.cvec.data(), acc.cvec.size());
    visit(&acc.nll, 1);
    if (factorized_) {
      for (size_t i = 0; i < q_; ++i) {
        visit(acc.wxsum[i].data(), acc.wxsum[i].rows() * acc.wxsum[i].cols());
        visit(acc.wsum[i].data(), acc.wsum[i].size());
        visit(acc.wzsum[i].data(), acc.wzsum[i].size());
      }
    }
  }

  Status EndPass(const PipelineContext& ctx, int, int) override {
    if (factorized_) {
      // Deferred blocks: one rank-1 update per attribute tuple instead of
      // per fact tuple — linreg's cofactor deferral with the IRLS weights
      // folded into the per-rid masses.
      for (size_t i = 0; i < q_; ++i) {
        const Matrix& feats = (*ctx.views)[i].feats();
        const size_t dri = feats.cols();
        const size_t off = attr_offset_[i];
        for (size_t rid = 0; rid < feats.rows(); ++rid) {
          const double sw = wsum_[i][rid];
          if (sw == 0.0) continue;
          const double* xr = feats.Row(rid).data();
          // S x Ri cross block from the weighted per-rid S-slice sums.
          la::AddOuter(1.0, wxsum_[i].Row(rid).data(), ds_, xr, dri, &gram_,
                       0, off);
          // Ri-diagonal block, weighted by the total IRLS mass.
          la::AddOuter(sw, xr, dri, xr, dri, &gram_, off, off);
          // Ri slice of the working-response cofactor.
          la::Axpy(wzsum_[i][rid], xr, cvec_.data() + off, dri);
          if (opt_.intercept) {
            for (size_t j = 0; j < dri; ++j) {
              gram_(off + j, da_ - 1) += sw * xr[j];
            }
            CountMults(dri);
            CountAdds(dri);
          }
        }
      }
      if (opt_.intercept) {
        // Intercept column, S part and total weight, recovered from the
        // table-0 per-rid masses (no extra per-fact-tuple work).
        for (size_t rid = 0; rid < wsum_[0].size(); ++rid) {
          const double* ws = wxsum_[0].Row(rid).data();
          for (size_t j = 0; j < ds_; ++j) gram_(j, da_ - 1) += ws[j];
          gram_(da_ - 1, da_ - 1) += wsum_[0][rid];
          cvec_[da_ - 1] += wzsum_[0][rid];
          CountAdds(ds_ + 2);
        }
      }
      wxsum_.clear();
      wsum_.clear();
      wzsum_.clear();
    }
    // Mirror the one-sided cross blocks, as in linreg.
    for (size_t r = 0; r < da_; ++r) {
      for (size_t c = r + 1; c < da_; ++c) gram_(c, r) = gram_(r, c);
    }
    return Status::OK();
  }

  Result<bool> EndIteration(const PipelineContext& ctx, int iter) override {
    // The per-iteration weighted-normal-equations solve, reported as its
    // own phase next to the "irls" pass time.
    core::PhaseScope phase(ctx.report, "solve");
    Matrix a = gram_;
    for (size_t j = 0; j < d_; ++j) a(j, j) += opt_.l2;  // bias unpenalized
    la::Cholesky chol;
    FML_RETURN_IF_ERROR(chol.FactorWithJitter(a));
    std::vector<double> beta_new(da_);
    chol.Solve(cvec_.data(), beta_new.data());
    double delta = 0.0;
    for (size_t j = 0; j < da_; ++j) {
      delta = std::max(delta, std::fabs(beta_new[j] - beta_[j]));
    }
    CountSubs(da_);
    beta_ = std::move(beta_new);
    objective_ = nll_ / static_cast<double>(n_);
    (void)iter;
    return opt_.tol > 0.0 && delta < opt_.tol;
  }

  /// Mean negative log-likelihood under the parameters of the last
  /// completed IRLS pass (the solve that follows moves beta once more —
  /// like GMM's log-likelihood, which is one E-step behind the final
  /// M-step).
  double Objective() const override { return objective_; }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    visit(beta_.data(), beta_.size());
    visit(&objective_, 1);
  }

  LogregModel&& TakeModel() && {
    model_.w.assign(beta_.begin(), beta_.begin() + static_cast<long>(d_));
    model_.bias = opt_.intercept ? beta_[da_ - 1] : 0.0;
    return std::move(model_);
  }

 private:
  struct Acc {
    Matrix gram;                // da x da (upper cross blocks only)
    std::vector<double> cvec;   // da
    double nll = 0.0;
    std::vector<Matrix> wxsum;               // [i]: nRi x ds, sum s * xs
    std::vector<std::vector<double>> wsum;   // [i][rid] sum s
    std::vector<std::vector<double>> wzsum;  // [i][rid] sum s * z
  };

  /// IRLS per-tuple quantities from the linear response: weight
  /// s = p(1-p) (floored) and working response z; accrues the tuple's
  /// negative log-likelihood into *nll.
  std::pair<double, double> Reweight(double eta, double y, double* nll) const {
    const double p_raw = 1.0 / (1.0 + std::exp(-eta));
    CountExps(1);
    const double p = std::clamp(p_raw, kProbClamp, 1.0 - kProbClamp);
    const double s = std::max(p * (1.0 - p), kWeightFloor);
    const double z = eta + (y - p) / s;
    *nll -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
    CountMults(4);
    CountAdds(3);
    CountSubs(3);
    return {s, z};
  }

  const join::NormalizedRelations* rel_ = nullptr;
  const std::vector<join::AttributeTableView>* views_ = nullptr;
  bool factorized_ = false;
  size_t d_ = 0, ds_ = 0, q_ = 0, da_ = 0;
  int64_t n_ = 0;
  std::vector<size_t> attr_offset_;

  std::vector<double> beta_;  // da (bias last when intercept)
  Matrix gram_;
  std::vector<double> cvec_;
  double nll_ = 0.0;
  double objective_ = 0.0;
  std::vector<std::vector<double>> rid_dot_;  // [i][rid] beta_Ri . xr
  std::vector<Matrix> wxsum_;
  std::vector<std::vector<double>> wsum_;
  std::vector<std::vector<double>> wzsum_;
  std::vector<Acc> acc_;
  std::vector<exec::Range> slot_spans_;  // table-0 rid span per slot

  LogregModel model_;
  // Last: the inherited RuntimeOptions block (unused by the program)
  // makes it ~250 bytes, which would push every member above into long
  // displacements in the accumulate loops.
  LogregOptions opt_;
};

}  // namespace

double LogregModel::PredictProb(const double* x) const {
  return 1.0 / (1.0 + std::exp(-(la::Dot(x, w.data(), w.size()) + bias)));
}

double LogregModel::MaxAbsDiff(const LogregModel& a, const LogregModel& b) {
  FML_CHECK_EQ(a.w.size(), b.w.size());
  double m = std::fabs(a.bias - b.bias);
  for (size_t j = 0; j < a.w.size(); ++j) {
    m = std::max(m, std::fabs(a.w[j] - b.w[j]));
  }
  return m;
}

Result<LogregModel> TrainLogreg(const join::NormalizedRelations& rel,
                                const LogregOptions& options,
                                core::Algorithm algorithm,
                                storage::BufferPool* pool,
                                core::TrainReport* report) {
  LogregProgram program(options);
  core::pipeline::StrategyOptions sopt(options);
  if (sopt.shard_backend == "process") {
    sopt.shard_job_family = "logreg";
    sopt.shard_job_blob = EncodeShardJob(options);
  }
  FML_RETURN_IF_ERROR(
      core::pipeline::RunTraining(rel, algorithm, sopt, &program, pool,
                                  report));
  return std::move(program).TakeModel();
}

std::string EncodeShardJob(const LogregOptions& options) {
  net::ByteWriter w;
  w.F64(options.l2);
  w.U8(options.intercept ? 1 : 0);
  w.I64(options.max_iters);
  w.F64(options.tol);
  return w.Take();
}

Result<LogregOptions> DecodeShardJob(const std::string& blob) {
  LogregOptions options;
  net::ByteReader r(blob);
  uint8_t intercept = 0;
  int64_t max_iters = 0;
  FML_RETURN_IF_ERROR(r.F64(&options.l2));
  FML_RETURN_IF_ERROR(r.U8(&intercept));
  FML_RETURN_IF_ERROR(r.I64(&max_iters));
  FML_RETURN_IF_ERROR(r.F64(&options.tol));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("logreg shard job: trailing bytes");
  }
  options.intercept = intercept != 0;
  options.max_iters = static_cast<int>(max_iters);
  return options;
}

std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const LogregOptions& options) {
  return std::make_unique<LogregProgram>(options);
}

}  // namespace factorml::logreg
