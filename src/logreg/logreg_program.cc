// Logistic regression as a core/pipeline ModelProgram: IRLS over the
// weighted Gram/cofactor pass (linreg/gram_program.h). Every iteration is
// one "irls" full pass with per-tuple weight s_i = p_i (1 - p_i) and
// target z_i = eta_i + (y_i - p_i) / s_i, then one ridge solve. The
// response eta = beta . x + bias is itself factorized: per-rid dot products
// beta_Ri . xr are computed once per R tuple per pass (BeginPass), so a
// fact tuple costs O(dS + q) instead of O(d) — the cursor plane only ever
// hands the model normalized rows.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/opcount.h"
#include "core/pipeline/access_strategy.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "linreg/gram_program.h"
#include "logreg/logreg.h"
#include "net/wire.h"

namespace factorml::logreg {

namespace {

using core::pipeline::DenseBlock;
using core::pipeline::FactorizedBlock;
using core::pipeline::InvalidOption;
using core::pipeline::PipelineContext;
using la::Matrix;

constexpr double kProbClamp = 1e-12;   // keeps log() finite
constexpr double kWeightFloor = 1e-10; // keeps z = eta + (y-p)/s finite

class LogregProgram final : public linreg::GramProgram {
 public:
  explicit LogregProgram(const LogregOptions& options)
      : GramProgram(options.intercept), opt_(options) {}

  const char* Name() const override { return "LOGREG"; }
  const char* TempStem() const override { return "logreg"; }
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
    FML_RETURN_IF_ERROR(GramProgram::Init(ctx));
    beta_.assign(da_, 0.0);  // p = 0.5 everywhere: the canonical IRLS start
    return Status::OK();
  }

  Status BeginPass(const PipelineContext& ctx, int iter, int pass,
                   int workers) override {
    FML_RETURN_IF_ERROR(GramProgram::BeginPass(ctx, iter, pass, workers));
    if (!factorized_) return Status::OK();
    // eta's attribute part, once per R tuple per pass: the same
    // per-attribute-tuple reuse the Gram deferral exploits.
    rid_dot_.resize(q_);
    for (size_t i = 0; i < q_; ++i) {
      const Matrix& feats = (*ctx.views)[i].feats();
      const size_t dri = feats.cols();
      rid_dot_[i].resize(feats.rows());
      for (size_t rid = 0; rid < feats.rows(); ++rid) {
        rid_dot_[i][rid] = la::Dot(feats.Row(rid).data(),
                                   beta_.data() + attr_offset_[i], dri);
      }
    }
    return Status::OK();
  }

  void AccumulateDense(int, int worker, const DenseBlock& block) override {
    if (block.strips != nullptr) {
      StripWeigher weigh(this, block.strips->strip_rows);
      AccumulateStrips(worker, block, weigh);
      return;
    }
    const double bias = opt_.intercept ? beta_[d_] : 0.0;
    AccumulateRows</*kWeighted=*/true>(
        worker, block,
        [&](const double* x, double y, const int64_t*, double& nll) {
          const auto [s, z] =
              Reweight(la::Dot(x, beta_.data(), d_) + bias, y, &nll);
          CountMults(1);  // s * z
          return std::pair(s, s * z);
        });
  }

  void AccumulateFactorized(int, int worker,
                            const FactorizedBlock& block) override {
    if (block.s_strips != nullptr) {
      StripWeigher weigh(this, block.s_strips->strip_rows);
      AccumulateFactStrips(worker, block, weigh);
      return;
    }
    const double bias = opt_.intercept ? beta_[d_] : 0.0;
    AccumulateFacts(
        worker, block,
        [&](const double* xs, double y, const int64_t* keys, double& nll) {
          // Factorized response: S part per tuple, attribute parts from
          // the per-rid dot cache (one add per join).
          double eta = la::Dot(xs, beta_.data(), ds_) + bias;
          for (size_t i = 0; i < q_; ++i) {
            eta += rid_dot_[i][static_cast<size_t>(keys[rel_->FkKeyIndex(i)])];
          }
          CountAdds(q_);
          const auto [s, z] = Reweight(eta, y, &nll);
          CountMults(1);  // s * z
          return std::pair(s, s * z);
        });
  }

  Result<bool> EndIteration(const PipelineContext& ctx, int iter) override {
    // The per-iteration weighted-normal-equations solve, reported as its
    // own phase next to the "irls" pass time.
    core::PhaseScope phase(ctx.report, "solve");
    std::vector<double> beta_new;
    FML_RETURN_IF_ERROR(SolveRidge(iter, opt_.l2, &beta_new));
    double delta = 0.0;
    for (size_t j = 0; j < da_; ++j) {
      delta = std::max(delta, std::fabs(beta_new[j] - beta_[j]));
    }
    CountSubs(da_);
    beta_ = std::move(beta_new);
    objective_ = merged_.scalar / static_cast<double>(n_);
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

  /// The strip weigh of both Accumulate*Strips templates: the linear
  /// response goes through the batch kernels (col_dot_strip over the
  /// strip's columns, plus one rid_dot_ gather per table on the
  /// factorized path); Reweight stays per row so the exp/log stream and
  /// its op charges are identical to the scalar path.
  class StripWeigher {
   public:
    StripWeigher(const LogregProgram* p, size_t strip_rows)
        : p_(p), eta_(strip_rows), sw_(strip_rows), sz_(strip_rows) {}

    std::pair<const double*, const double*> operator()(
        const double* const* cols, size_t ncols, size_t rows,
        const double* y, const int64_t* const* rids, double& nll) {
      // eta = X beta (+ bias) (+ beta_Ri . xr per table) — the per-row
      // Dot stream, batched.
      la::Active().col_dot_strip(cols, ncols, rows, p_->beta_.data(),
                                 eta_.data());
      CountMults(rows * ncols);
      CountAdds(rows * ncols);
      const double bias = p_->opt_.intercept ? p_->beta_[p_->d_] : 0.0;
      for (size_t r = 0; r < rows; ++r) eta_[r] += bias;
      if (rids != nullptr) {
        for (size_t i = 0; i < p_->q_; ++i) {
          la::Active().gather_add_strip(p_->rid_dot_[i].data(), rids[i], rows,
                                        eta_.data());
        }
        CountAdds(rows * p_->q_);
      }
      for (size_t r = 0; r < rows; ++r) {
        const auto [s, z] = p_->Reweight(eta_[r], y[r], &nll);
        sw_[r] = s;
        sz_[r] = s * z;
      }
      CountMults(rows);  // the per-row s * z products
      return {sw_.data(), sz_.data()};
    }

   private:
    const LogregProgram* p_;
    std::vector<double> eta_, sw_, sz_;
  };

  std::vector<double> beta_;  // da (bias last when intercept)
  std::vector<std::vector<double>> rid_dot_;  // [i][rid] beta_Ri . xr
  double objective_ = 0.0;
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
  return linreg::CoefficientMaxAbsDiff(a, b);
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
