// Ridge linear regression as a core/pipeline ModelProgram: the unit-weight,
// one-iteration case of the weighted Gram/cofactor pass (gram_program.h).
// One "gram" full pass accumulates G = X^T X, c = X^T y and sum(y^2); the
// closed-form Cholesky solve happens in EndIteration.

#include <cmath>
#include <utility>
#include <vector>

#include "common/opcount.h"
#include "core/pipeline/access_strategy.h"
#include "la/ops.h"
#include "linreg/gram_program.h"
#include "linreg/linreg.h"
#include "net/wire.h"

namespace factorml::linreg {

namespace {

using core::pipeline::DenseBlock;
using core::pipeline::FactorizedBlock;
using core::pipeline::InvalidOption;
using core::pipeline::PipelineContext;

class LinregProgram final : public GramProgram {
 public:
  explicit LinregProgram(const LinregOptions& options)
      : GramProgram(options.intercept), opt_(options) {}

  const char* Name() const override { return "LINREG"; }
  const char* TempStem() const override { return "linreg"; }
  Status ValidateOptions(const join::NormalizedRelations&) const override {
    if (!(opt_.l2 >= 0.0) || !std::isfinite(opt_.l2)) {
      return InvalidOption("linreg", "l2", "l2", "finite and >= 0", opt_.l2);
    }
    return Status::OK();
  }
  int MaxIterations() const override { return 1; }  // closed form
  const char* PassName(int) const override { return "gram"; }

  Status Init(const PipelineContext& ctx) override {
    FML_RETURN_IF_ERROR(GramProgram::Init(ctx));
    // Pre-sized so VisitIterationState is a pure function of Init-time
    // shapes (the checkpoint seam's contract).
    model_.w.assign(d_, 0.0);
    model_.bias = 0.0;
    sse_ = 0.0;
    return Status::OK();
  }

  void AccumulateDense(int, int worker, const DenseBlock& block) override {
    if (block.strips == nullptr) {
      AccumulateRows</*kWeighted=*/false>(worker, block, kUnitWeight);
      return;
    }
    AccumulateStrips(worker, block, kStripUnitWeight);
  }

  void AccumulateFactorized(int, int worker,
                            const FactorizedBlock& block) override {
    if (block.s_strips == nullptr) {
      AccumulateFacts(worker, block, kUnitWeight);
      return;
    }
    AccumulateFactStrips(worker, block, kStripUnitWeight);
  }

  Result<bool> EndIteration(const PipelineContext& ctx, int iter) override {
    // The closed-form Cholesky solve, reported as its own phase next to
    // the "gram" pass time.
    core::PhaseScope phase(ctx.report, "solve");
    std::vector<double> w_full;
    FML_RETURN_IF_ERROR(SolveRidge(iter, opt_.l2, &w_full));
    model_.w.assign(w_full.begin(), w_full.begin() + static_cast<long>(d_));
    model_.bias = opt_.intercept ? w_full[da_ - 1] : 0.0;
    // SSE = w^T G w - 2 w^T c + sum(y^2), no further data pass needed.
    const double wgw = la::QuadForm(merged_.gram, w_full.data(), da_);
    const double wc = la::Dot(w_full.data(), merged_.cvec.data(), da_);
    sse_ = wgw - 2.0 * wc + merged_.scalar;
    CountMults(1);
    CountSubs(2);
    return true;
  }

  double Objective() const override {
    return sse_ / (2.0 * static_cast<double>(n_));  // half-MSE, as NN
  }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    visit(model_.w.data(), model_.w.size());
    visit(&model_.bias, 1);
    visit(&sse_, 1);
  }

  LinregModel&& TakeModel() && { return std::move(model_); }

 private:
  /// Unit weight and target y; the family scalar is sum(y^2).
  static constexpr auto kUnitWeight = [](const double*, double y,
                                         const int64_t*, double& yy) {
    yy += y * y;
    CountMults(1);
    CountAdds(1);
    return std::pair(1.0, y);
  };
  /// kUnitWeight over one strip (either Accumulate*Strips template).
  static constexpr auto kStripUnitWeight =
      [](const double* const*, size_t, size_t rows, const double* y,
         const int64_t* const*, double& yy) {
        yy += la::Active().dot(y, y, rows);
        CountMults(rows);
        CountAdds(rows);
        return std::pair<const double*, const double*>(nullptr, y);
      };

  LinregModel model_;
  double sse_ = 0.0;
  // Last: the inherited RuntimeOptions block (unused by the program)
  // makes it ~250 bytes, which would push every member above into long
  // displacements in the accumulate loops.
  LinregOptions opt_;
};

}  // namespace

double LinregModel::Predict(const double* x) const {
  return la::Dot(x, w.data(), w.size()) + bias;
}

double LinregModel::MaxAbsDiff(const LinregModel& a, const LinregModel& b) {
  return CoefficientMaxAbsDiff(a, b);
}

Result<LinregModel> TrainLinreg(const join::NormalizedRelations& rel,
                                const LinregOptions& options,
                                core::Algorithm algorithm,
                                storage::BufferPool* pool,
                                core::TrainReport* report) {
  LinregProgram program(options);
  core::pipeline::StrategyOptions sopt(options);
  if (sopt.shard_backend == "process") {
    sopt.shard_job_family = "linreg";
    sopt.shard_job_blob = EncodeShardJob(options);
  }
  FML_RETURN_IF_ERROR(
      core::pipeline::RunTraining(rel, algorithm, sopt, &program, pool,
                                  report));
  return std::move(program).TakeModel();
}

std::string EncodeShardJob(const LinregOptions& options) {
  net::ByteWriter w;
  w.F64(options.l2);
  w.U8(options.intercept ? 1 : 0);
  return w.Take();
}

Result<LinregOptions> DecodeShardJob(const std::string& blob) {
  LinregOptions options;
  net::ByteReader r(blob);
  uint8_t intercept = 0;
  FML_RETURN_IF_ERROR(r.F64(&options.l2));
  FML_RETURN_IF_ERROR(r.U8(&intercept));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("linreg shard job: trailing bytes");
  }
  options.intercept = intercept != 0;
  return options;
}

std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const LinregOptions& options) {
  return std::make_unique<LinregProgram>(options);
}

}  // namespace factorml::linreg
