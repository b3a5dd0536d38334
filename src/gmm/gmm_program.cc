// GMM as a core/pipeline ModelProgram: the EM recurrence of the paper
// (Algorithm 1 / Sec. V) expressed as three full passes per iteration —
// e_step, m_step_mean, m_step_cov — with a dense row path shared by the M
// and S strategies and the factorized path of F-GMM (Eqs. 19-24). The
// former m_gmm.cc / s_gmm.cc / f_gmm.cc trainers are now thin wrappers
// that run this one program under the matching AccessStrategy; at
// --threads=1 the pipeline replays their exact op/I/O stream.

#include <cmath>
#include <limits>
#include <vector>

#include "common/opcount.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "gmm/em_util.h"
#include "gmm/trainers.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace factorml::gmm {

namespace {

using core::pipeline::DenseBlock;
using core::pipeline::FactorizedBlock;
using core::pipeline::InvalidOption;
using core::pipeline::PipelineContext;
using internal::Responsibilities;
using join::AttributeTableView;
using la::Matrix;

/// Subtracts mu (length d) from x into diff, counting the d subtractions
/// the paper's cost model charges per tuple (Sec. V-B).
inline void CenterInto(const double* x, const double* mu, size_t d,
                       double* diff) {
  for (size_t j = 0; j < d; ++j) diff[j] = x[j] - mu[j];
  CountSubs(d);
}

/// Per-pass factorized state for one attribute table and one component:
/// the centered rows PD_Ri = x_Ri - mu[slice i] for every rid (Eq. 20),
/// computed once per R tuple per pass and reused for all matching S rows.
struct CenteredCache {
  // pd[c] is nRi x dRi.
  std::vector<Matrix> pd;
  // diag[c][rid] = PD^T * I_ii * PD, the reusable diagonal quadratic block
  // of the E-step (the LR term of Eq. 12 / i==j terms of Eq. 19).
  std::vector<std::vector<double>> diag;
};

/// Rebuilds the centered caches against the current means. `with_diag`
/// additionally caches the diagonal quadratic form (E-step only).
void BuildCenteredCaches(const std::vector<AttributeTableView>& views,
                         const GmmParams& params,
                         const std::vector<size_t>& attr_offset,
                         const GmmDensity* density, bool with_diag,
                         std::vector<CenteredCache>* caches) {
  const size_t k = params.num_components();
  caches->resize(views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    const Matrix& feats = views[i].feats();
    const size_t n_ri = feats.rows();
    const size_t d_ri = feats.cols();
    auto& cache = (*caches)[i];
    cache.pd.assign(k, Matrix());
    cache.diag.assign(k, {});
    for (size_t c = 0; c < k; ++c) {
      Matrix& pd = cache.pd[c];
      pd.Resize(n_ri, d_ri);
      const double* mu_slice = params.mu.Row(c).data() + attr_offset[i];
      for (size_t rid = 0; rid < n_ri; ++rid) {
        CenterInto(feats.Row(rid).data(), mu_slice, d_ri, pd.Row(rid).data());
      }
      if (with_diag) {
        auto& diag = cache.diag[c];
        diag.resize(n_ri);
        for (size_t rid = 0; rid < n_ri; ++rid) {
          diag[rid] =
              la::Bilinear(density->precision[c], attr_offset[i],
                           attr_offset[i], pd.Row(rid).data(), d_ri,
                           pd.Row(rid).data(), d_ri);
        }
      }
    }
  }
}

class GmmProgram final : public core::pipeline::ModelProgram {
 public:
  explicit GmmProgram(const GmmOptions& options) : opt_(options) {}

  const char* Name() const override { return "GMM"; }
  const char* TempStem() const override { return "gmm"; }
  uint32_t Capabilities() const override {
    return core::pipeline::kFullPass | core::pipeline::kFactorized;
  }
  Status ValidateOptions(const join::NormalizedRelations& rel) const override {
    if (opt_.num_components == 0 ||
        opt_.num_components > static_cast<uint64_t>(rel.s.num_rows())) {
      return Status::InvalidArgument(
          "gmm: num_components (--k) must be in [1, number of S rows]");
    }
    if (opt_.max_iters < 1) {
      return InvalidOption("gmm", "max_iters", "iters", ">= 1",
                           opt_.max_iters);
    }
    if (!std::isfinite(opt_.tol)) {
      return InvalidOption("gmm", "tol", "tol", "finite", opt_.tol);
    }
    if (!(opt_.cov_reg >= 0.0) || !std::isfinite(opt_.cov_reg)) {
      return InvalidOption("gmm", "cov_reg", /*flag=*/nullptr,
                           "finite and >= 0", opt_.cov_reg);
    }
    return Status::OK();
  }
  int MaxIterations() const override { return opt_.max_iters; }
  int NumPasses(int) const override { return 3; }
  const char* PassName(int pass) const override {
    switch (pass) {
      case kEStep:
        return "e_step";
      case kMeanStep:
        return "m_step_mean";
      default:
        return "m_step_cov";
    }
  }

  Status Init(const PipelineContext& ctx) override {
    rel_ = ctx.rel;
    factorized_ = ctx.factorized();
    k_ = opt_.num_components;
    d_ = rel_->total_dims();
    ds_ = rel_->ds();
    q_ = rel_->num_joins();
    y_off_ = rel_->has_target ? 1 : 0;
    n_ = rel_->s.num_rows();
    attr_offset_.resize(q_);
    for (size_t i = 0; i < q_; ++i) attr_offset_[i] = rel_->FeatureOffset(i + 1);

    FML_ASSIGN_OR_RETURN(Matrix seeds,
                         internal::InitSeedRows(*rel_, ctx.pool, opt_));
    params_ = GmmParams::Init(seeds, opt_.init_spread);
    resp_.Reset(static_cast<size_t>(n_), k_);
    sigma_sum_.resize(k_);
    if (factorized_) gsum_.resize(q_);
    loglik_ = -std::numeric_limits<double>::infinity();
    return Status::OK();
  }

  Status BeginPass(const PipelineContext& ctx, int /*iter*/, int pass,
                   int workers) override {
    acc_.resize(static_cast<size_t>(workers));
    if (factorized_) {
      // The rid-span contract: slot w only ever sees table-0 rids inside
      // its morsel range, so its per-rid state (gsum[0]) is sized to the
      // span, not the table — O(n_R0) across all slots instead of
      // O(slots x n_R0). Further tables' rids are unordered within a
      // chunk and stay full-domain.
      const int64_t n_r0 = static_cast<int64_t>((*ctx.views)[0].feats().rows());
      slot_spans_.resize(static_cast<size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        slot_spans_[static_cast<size_t>(w)] =
            core::pipeline::SlotRidSpan(ctx, w, n_r0);
      }
    }
    switch (pass) {
      case kEStep: {
        FML_ASSIGN_OR_RETURN(density_, GmmDensity::From(params_));
        if (factorized_) {
          // Once per R tuple: centered slices and diagonal quadratic blocks.
          BuildCenteredCaches(*ctx.views, params_, attr_offset_, &density_,
                              /*with_diag=*/true, &caches_);
        }
        ll_sum_ = 0.0;
        std::fill(resp_.n_k.begin(), resp_.n_k.end(), 0.0);
        for (auto& acc : acc_) {
          acc.ll = 0.0;
          acc.n_k.assign(k_, 0.0);
          acc.logp.resize(k_);
          acc.diff.resize(factorized_ ? ds_ : d_);
        }
        break;
      }
      case kMeanStep: {
        const size_t mu_len = k_ * (factorized_ ? ds_ : d_);
        mu_sum_.assign(mu_len, 0.0);
        for (auto& acc : acc_) acc.mu_sum.assign(mu_len, 0.0);
        if (factorized_) {
          for (size_t i = 0; i < q_; ++i) {
            const size_t n_ri = (*ctx.views)[i].feats().rows();
            gsum_[i].assign(k_, std::vector<double>(n_ri, 0.0));
            for (size_t w = 0; w < acc_.size(); ++w) {
              Acc& acc = acc_[w];
              acc.gsum.resize(q_);
              const size_t len =
                  i == 0 ? static_cast<size_t>(slot_spans_[w].size()) : n_ri;
              acc.gsum[i].assign(k_, std::vector<double>(len, 0.0));
            }
          }
        }
        break;
      }
      case kCovStep: {
        if (factorized_) {
          // Centered caches against the *updated* means; no diagonal quad
          // cache is needed here.
          BuildCenteredCaches(*ctx.views, params_, attr_offset_, nullptr,
                              /*with_diag=*/false, &caches_);
        }
        for (size_t c = 0; c < k_; ++c) sigma_sum_[c].Resize(d_, d_);
        for (auto& acc : acc_) {
          acc.sigma.assign(k_, Matrix());
          for (size_t c = 0; c < k_; ++c) acc.sigma[c].Resize(d_, d_);
          acc.diff.resize(factorized_ ? ds_ : d_);
        }
        break;
      }
    }
    return Status::OK();
  }

  void AccumulateDense(int pass, int worker, const DenseBlock& block) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    if (block.strips != nullptr) {
      AccumulateDenseStrips(pass, worker, block);
      return;
    }
    switch (pass) {
      case kEStep: {
        // One full read of the joined rows (Lines 4-8 of Algorithm 1).
        for (size_t r = 0; r < block.num_rows; ++r) {
          const double* x = block.X(r);
          for (size_t c = 0; c < k_; ++c) {
            CenterInto(x, params_.mu.Row(c).data(), d_, acc.diff.data());
            const double q =
                la::QuadForm(density_.precision[c], acc.diff.data(), d_);
            acc.logp[c] = density_.log_coeff[c] - 0.5 * q;
          }
          double* gamma =
              resp_.Row(block.start_row + static_cast<int64_t>(r));
          acc.ll += internal::PosteriorFromLogps(acc.logp.data(), k_, gamma);
          for (size_t c = 0; c < k_; ++c) acc.n_k[c] += gamma[c];
        }
        break;
      }
      case kMeanStep: {
        // Second read (Lines 10-15): responsibility-weighted feature sums.
        for (size_t r = 0; r < block.num_rows; ++r) {
          const double* x = block.X(r);
          const double* gamma =
              resp_.Row(block.start_row + static_cast<int64_t>(r));
          for (size_t c = 0; c < k_; ++c) {
            la::Axpy(gamma[c], x, acc.mu_sum.data() + c * d_, d_);
          }
        }
        break;
      }
      case kCovStep: {
        // Third read (Lines 16-21): centered outer products.
        for (size_t r = 0; r < block.num_rows; ++r) {
          const double* x = block.X(r);
          const double* gamma =
              resp_.Row(block.start_row + static_cast<int64_t>(r));
          for (size_t c = 0; c < k_; ++c) {
            CenterInto(x, params_.mu.Row(c).data(), d_, acc.diff.data());
            la::AddOuter(gamma[c], acc.diff.data(), d_, acc.diff.data(), d_,
                         &acc.sigma[c], 0, 0);
          }
        }
        break;
      }
    }
  }

  /// Batched (--kernels=simd) twins of the three dense passes. The
  /// component-structured kernels work on a centered d x rows strip
  /// (diff[i*rows + r]); the per-row posterior normalization stays
  /// row-at-a-time so its exp/log stream matches the scalar path exactly.
  /// Every kernel call is charged the op counts of the per-row loop it
  /// replaces.
  void AccumulateDenseStrips(int pass, int worker, const DenseBlock& block) {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::ColumnStrips& st = *block.strips;
    const la::Kernels& kern = la::Active();
    std::vector<const double*> cols(d_);
    std::vector<double> diffm;          // centered strip, d x rows row-major
    std::vector<const double*> dptr;    // row pointers into diffm
    std::vector<double> gbuf;           // contiguous per-component gammas
    Matrix qbuf;                        // k x rows quadratic forms
    if (pass != kMeanStep) {
      diffm.resize(d_ * st.strip_rows);
      dptr.resize(d_);
    }
    if (pass == kEStep) qbuf.Resize(k_, st.strip_rows);
    if (pass != kEStep) gbuf.resize(st.strip_rows);
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      const int64_t base =
          block.start_row + static_cast<int64_t>(st.StripStart(s));
      for (size_t j = 0; j < d_; ++j) cols[j] = block.StripX(s, j);
      switch (pass) {
        case kEStep: {
          for (size_t c = 0; c < k_; ++c) {
            const double* mu = params_.mu.Row(c).data();
            for (size_t i = 0; i < d_; ++i) {
              const double* xi = cols[i];
              double* di = diffm.data() + i * rows;
              for (size_t r = 0; r < rows; ++r) di[r] = xi[r] - mu[i];
            }
            CountSubs(rows * d_);  // the per-row CenterInto stream
            kern.quadform_strip(diffm.data(), d_, rows,
                                density_.precision[c].data(),
                                density_.precision[c].cols(),
                                qbuf.Row(c).data());
            CountMults(rows * (d_ * d_ + d_));  // the QuadForm stream
            CountAdds(rows * (d_ * d_ + d_));
          }
          for (size_t r = 0; r < rows; ++r) {
            for (size_t c = 0; c < k_; ++c) {
              acc.logp[c] = density_.log_coeff[c] - 0.5 * qbuf(c, r);
            }
            double* gamma = resp_.Row(base + static_cast<int64_t>(r));
            acc.ll +=
                internal::PosteriorFromLogps(acc.logp.data(), k_, gamma);
            for (size_t c = 0; c < k_; ++c) acc.n_k[c] += gamma[c];
          }
          break;
        }
        case kMeanStep: {
          for (size_t c = 0; c < k_; ++c) {
            // resp_ rows are k_-strided; the kernel wants one contiguous
            // gamma column per component.
            for (size_t r = 0; r < rows; ++r) {
              gbuf[r] = resp_.Row(base + static_cast<int64_t>(r))[c];
            }
            kern.colsum_strip(cols.data(), d_, rows, gbuf.data(),
                              acc.mu_sum.data() + c * d_);
            CountMults(rows * d_);  // the per-row Axpy(gamma, x) stream
            CountAdds(rows * d_);
          }
          break;
        }
        case kCovStep: {
          for (size_t c = 0; c < k_; ++c) {
            const double* mu = params_.mu.Row(c).data();
            for (size_t i = 0; i < d_; ++i) {
              const double* xi = cols[i];
              double* di = diffm.data() + i * rows;
              for (size_t r = 0; r < rows; ++r) di[r] = xi[r] - mu[i];
              dptr[i] = di;
            }
            CountSubs(rows * d_);
            for (size_t r = 0; r < rows; ++r) {
              gbuf[r] = resp_.Row(base + static_cast<int64_t>(r))[c];
            }
            kern.syrk_strip(dptr.data(), d_, rows, gbuf.data(),
                            acc.sigma[c].data(), acc.sigma[c].cols());
            CountMults(rows * (d_ * d_ + d_));  // the AddOuter stream
            CountAdds(rows * d_ * d_);
          }
          break;
        }
      }
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  void AccumulateFactorized(int pass, int worker,
                            const FactorizedBlock& block) override {
    if (block.s_strips != nullptr) {
      AccumulateFactorizedStrips(pass, worker, block);
      return;
    }
    Acc& acc = acc_[static_cast<size_t>(worker)];
    const storage::RowBatch& s_rows = *block.s_rows;
    switch (pass) {
      case kEStep: {
        std::vector<double>& pds = acc.diff;  // centered S slice, per worker
        for (size_t r = 0; r < s_rows.num_rows; ++r) {
          const double* xs = s_rows.feats.Row(r).data() + y_off_;
          const int64_t* keys = s_rows.KeysOf(r);
          for (size_t c = 0; c < k_; ++c) {
            CenterInto(xs, params_.mu.Row(c).data(), ds_, pds.data());
            // Block decomposition of (x - mu)^T I (x - mu), Eq. 19:
            // the S-diagonal block plus, per attribute table, the two
            // cross blocks (UR + LL, Eqs. 10-11) and the cached
            // diagonal block (LR, Eq. 12); multi-way adds the
            // attr-attr cross blocks.
            double quad = la::Bilinear(density_.precision[c], 0, 0,
                                       pds.data(), ds_, pds.data(), ds_);
            for (size_t i = 0; i < q_; ++i) {
              const int64_t rid = keys[rel_->FkKeyIndex(i)];
              const double* pdr = caches_[i].pd[c].Row(rid).data();
              const size_t dri = rel_->dr(i);
              const double ur =
                  la::Bilinear(density_.precision[c], 0, attr_offset_[i],
                               pds.data(), ds_, pdr, dri);
              if (opt_.exploit_symmetry) {
                // LL = UR because the precision matrix is symmetric.
                quad += 2.0 * ur;
                CountMults(1);
              } else {
                quad += ur + la::Bilinear(density_.precision[c],
                                          attr_offset_[i], 0, pdr, dri,
                                          pds.data(), ds_);
              }
              quad += caches_[i].diag[c][rid];
              CountAdds(3);
              for (size_t j = i + 1; j < q_; ++j) {
                const int64_t rid_j = keys[rel_->FkKeyIndex(j)];
                const double* pdj = caches_[j].pd[c].Row(rid_j).data();
                const size_t drj = rel_->dr(j);
                const double cross =
                    la::Bilinear(density_.precision[c], attr_offset_[i],
                                 attr_offset_[j], pdr, dri, pdj, drj);
                if (opt_.exploit_symmetry) {
                  quad += 2.0 * cross;
                  CountMults(1);
                } else {
                  quad += cross + la::Bilinear(density_.precision[c],
                                               attr_offset_[j],
                                               attr_offset_[i], pdj, drj,
                                               pdr, dri);
                }
                CountAdds(2);
              }
            }
            acc.logp[c] = density_.log_coeff[c] - 0.5 * quad;
          }
          double* gamma =
              resp_.Row(s_rows.start_row + static_cast<int64_t>(r));
          acc.ll += internal::PosteriorFromLogps(acc.logp.data(), k_, gamma);
          for (size_t c = 0; c < k_; ++c) acc.n_k[c] += gamma[c];
        }
        break;
      }
      case kMeanStep: {
        const int64_t base0 = slot_spans_[static_cast<size_t>(worker)].begin;
        for (size_t r = 0; r < s_rows.num_rows; ++r) {
          const double* xs = s_rows.feats.Row(r).data() + y_off_;
          const int64_t* keys = s_rows.KeysOf(r);
          const double* gamma =
              resp_.Row(s_rows.start_row + static_cast<int64_t>(r));
          for (size_t c = 0; c < k_; ++c) {
            // S slice accumulates per fact tuple; the R slices only
            // accumulate responsibility mass per rid — the
            // factorization of Eq. 13/22 that replaces nS * dR
            // multiplies by nS adds. Table 0 indexes span-relative.
            la::Axpy(gamma[c], xs, acc.mu_sum.data() + c * ds_, ds_);
            for (size_t i = 0; i < q_; ++i) {
              const int64_t rid = keys[rel_->FkKeyIndex(i)];
              acc.gsum[i][c][static_cast<size_t>(
                  i == 0 ? rid - base0 : rid)] += gamma[c];
            }
            CountAdds(q_);
          }
        }
        break;
      }
      case kCovStep: {
        std::vector<double>& pds = acc.diff;
        for (size_t r = 0; r < s_rows.num_rows; ++r) {
          const double* xs = s_rows.feats.Row(r).data() + y_off_;
          const int64_t* keys = s_rows.KeysOf(r);
          const double* gamma =
              resp_.Row(s_rows.start_row + static_cast<int64_t>(r));
          for (size_t c = 0; c < k_; ++c) {
            CenterInto(xs, params_.mu.Row(c).data(), ds_, pds.data());
            Matrix& sg = acc.sigma[c];
            // Off-diagonal blocks must be accumulated per fact tuple;
            // the attribute-diagonal blocks (LR of Eq. 18 / M_ii of
            // Eq. 24) are deferred: only the responsibility mass per
            // rid is accumulated here and one outer product per R
            // tuple is added afterwards.
            la::AddOuter(gamma[c], pds.data(), ds_, pds.data(), ds_, &sg, 0,
                         0);
            for (size_t i = 0; i < q_; ++i) {
              const int64_t rid = keys[rel_->FkKeyIndex(i)];
              const double* pdr = caches_[i].pd[c].Row(rid).data();
              const size_t dri = rel_->dr(i);
              la::AddOuter(gamma[c], pds.data(), ds_, pdr, dri, &sg, 0,
                           attr_offset_[i]);
              if (!opt_.exploit_symmetry) {
                la::AddOuter(gamma[c], pdr, dri, pds.data(), ds_, &sg,
                             attr_offset_[i], 0);
              }
              for (size_t j = i + 1; j < q_; ++j) {
                const int64_t rid_j = keys[rel_->FkKeyIndex(j)];
                const double* pdj = caches_[j].pd[c].Row(rid_j).data();
                const size_t drj = rel_->dr(j);
                la::AddOuter(gamma[c], pdr, dri, pdj, drj, &sg,
                             attr_offset_[i], attr_offset_[j]);
                if (!opt_.exploit_symmetry) {
                  la::AddOuter(gamma[c], pdj, drj, pdr, dri, &sg,
                               attr_offset_[j], attr_offset_[i]);
                }
              }
            }
          }
        }
        break;
      }
    }
  }

  /// Batched (--kernels=simd) twins of the three factorized passes. The
  /// S-slice work runs on the driver-packed strips (`quadform_strip`,
  /// `colsum_strip`, `syrk_strip`); the FK1 group structure turns the
  /// table-0 attribute terms into per-run strip work (one precision-slice
  /// product per R1 tuple, then `col_dot_strip` / a single outer product
  /// over the run's rows); per-rid responsibility mass lands through
  /// `scatter_add_strip` in row-ascending order, bit-identical to the
  /// scalar scatter. Further tables (multi-way joins) and the cross blocks
  /// stay row-at-a-time over the centered strip. Every kernel call is
  /// charged the exact op counts of the per-row loop it replaces, and the
  /// posterior exp stream is untouched — the PR 7 determinism contract.
  void AccumulateFactorizedStrips(int pass, int worker,
                                  const FactorizedBlock& block) {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::ColumnStrips& st = *block.s_strips;
    const storage::RowBatch& s_rows = *block.s_rows;
    const std::vector<join::JoinGroup>& groups = *block.groups;
    const la::Kernels& kern = la::Active();
    const size_t dr0 = q_ > 0 ? rel_->dr(0) : 0;

    std::vector<const double*> cols(ds_);  // S feature strip columns
    std::vector<double> diffm;             // centered S slice, ds x rows
    std::vector<const double*> dptr(ds_);  // row pointers into diffm
    std::vector<double> gbuf;              // contiguous per-component gammas
    std::vector<double> vbuf;              // per-run precision-slice product
    std::vector<double> ubuf;              // per-run col_dot output
    std::vector<double> lbuf;              // per-run LL col_dot (no symmetry)
    std::vector<double> wsum;              // per-run weighted column sum
    Matrix qbuf;                           // k x rows quadratic forms
    if (pass != kMeanStep) diffm.resize(ds_ * st.strip_rows);
    if (pass == kEStep) {
      qbuf.Resize(k_, st.strip_rows);
      vbuf.resize(ds_);
      ubuf.resize(st.strip_rows);
      if (!opt_.exploit_symmetry) lbuf.resize(st.strip_rows);
    }
    if (pass != kEStep) gbuf.resize(st.strip_rows);
    if (pass == kCovStep) wsum.resize(ds_);
    // Per-table rid columns for the gather/scatter kernels (uncharged
    // index movement, like the scalar path's KeysOf reads).
    std::vector<std::vector<int64_t>> ridbuf;
    if (pass == kMeanStep) {
      // Table-0 rids are rebased to the slot's span so the scatter targets
      // the span-sized gsum[0] slot (the rid-span contract).
      const int64_t base0 = slot_spans_[static_cast<size_t>(worker)].begin;
      ridbuf.resize(q_);
      for (size_t i = 0; i < q_; ++i) ridbuf[i].resize(s_rows.num_rows);
      for (size_t r = 0; r < s_rows.num_rows; ++r) {
        const int64_t* keys = s_rows.KeysOf(r);
        for (size_t i = 0; i < q_; ++i) {
          const int64_t rid = keys[rel_->FkKeyIndex(i)];
          ridbuf[i][r] = i == 0 ? rid - base0 : rid;
        }
      }
    }

    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      const size_t row0 = st.StripStart(s);
      const int64_t base = s_rows.start_row + static_cast<int64_t>(row0);
      for (size_t j = 0; j < ds_; ++j) cols[j] = st.Col(s, y_off_ + j);
      switch (pass) {
        case kEStep: {
          for (size_t c = 0; c < k_; ++c) {
            const Matrix& prec = density_.precision[c];
            const double* mu = params_.mu.Row(c).data();
            for (size_t i = 0; i < ds_; ++i) {
              const double* xi = cols[i];
              double* di = diffm.data() + i * rows;
              for (size_t r = 0; r < rows; ++r) di[r] = xi[r] - mu[i];
            }
            CountSubs(rows * ds_);  // the per-row CenterInto stream
            kern.quadform_strip(diffm.data(), ds_, rows, prec.data(),
                                prec.cols(), qbuf.Row(c).data());
            CountMults(rows * (ds_ * ds_ + ds_));  // the S-diag Bilinear
            CountAdds(rows * (ds_ * ds_ + ds_));
            // Table-0 terms per FK1 run: UR (and LL) collapse to one
            // precision-slice product per R1 tuple followed by a strip
            // col-dot over the run's centered rows; the cached diagonal
            // block adds per row. Charged with the per-row Bilinear
            // formulas the run replaces.
            double* qrow = qbuf.Row(c).data();
            for (const auto& g : groups) {
              const size_t lo = std::max(g.offset, row0);
              const size_t hi = std::min(g.offset + g.count, row0 + rows);
              if (lo >= hi) continue;
              const size_t rn = hi - lo;
              const size_t ll = lo - row0;  // strip-local run start
              const double* pdr = caches_[0].pd[c].Row(g.rid).data();
              for (size_t i = 0; i < ds_; ++i) {
                vbuf[i] = kern.dot(prec.Row(i).data() + attr_offset_[0],
                                   pdr, dr0);
              }
              for (size_t i = 0; i < ds_; ++i) {
                dptr[i] = diffm.data() + i * rows + ll;
              }
              kern.col_dot_strip(dptr.data(), ds_, rn, vbuf.data(),
                                 ubuf.data());
              CountMults(rn * (ds_ * dr0 + ds_));  // the UR Bilinear stream
              CountAdds(rn * (ds_ * dr0 + ds_));
              const double diag = caches_[0].diag[c][g.rid];
              if (opt_.exploit_symmetry) {
                for (size_t r = 0; r < rn; ++r) {
                  qrow[ll + r] += 2.0 * ubuf[r] + diag;
                }
                CountMults(rn);
              } else {
                // LL = pdr^T P[off0:, 0:ds] pds: fold pdr through the
                // precision rows once per run, then one more col-dot.
                std::fill(vbuf.begin(), vbuf.end(), 0.0);
                for (size_t j2 = 0; j2 < dr0; ++j2) {
                  kern.axpy(pdr[j2],
                            prec.Row(attr_offset_[0] + j2).data(),
                            vbuf.data(), ds_);
                }
                kern.col_dot_strip(dptr.data(), ds_, rn, vbuf.data(),
                                   lbuf.data());
                for (size_t r = 0; r < rn; ++r) {
                  qrow[ll + r] += ubuf[r] + lbuf[r] + diag;
                }
                CountMults(rn * (dr0 * ds_ + dr0));  // the LL Bilinear
                CountAdds(rn * (dr0 * ds_ + dr0));
              }
              CountAdds(3 * rn);
            }
          }
          // Multi-way tables and cross blocks row-at-a-time over the
          // centered strip (the centered S slice is gathered back from
          // diffm — pure data movement), exactly the scalar code.
          if (q_ > 1) {
            for (size_t c = 0; c < k_; ++c) {
              const Matrix& prec = density_.precision[c];
              const double* mu = params_.mu.Row(c).data();
              for (size_t r = 0; r < rows; ++r) {
                double* pds = acc.diff.data();
                for (size_t i = 0; i < ds_; ++i) {
                  pds[i] = cols[i][r] - mu[i];
                }
                const int64_t* keys = s_rows.KeysOf(row0 + r);
                double extra = 0.0;
                for (size_t i = 0; i < q_; ++i) {
                  const int64_t rid = keys[rel_->FkKeyIndex(i)];
                  const double* pdr = caches_[i].pd[c].Row(rid).data();
                  const size_t dri = rel_->dr(i);
                  if (i >= 1) {
                    const double ur =
                        la::Bilinear(prec, 0, attr_offset_[i], pds, ds_,
                                     pdr, dri);
                    if (opt_.exploit_symmetry) {
                      extra += 2.0 * ur;
                      CountMults(1);
                    } else {
                      extra += ur + la::Bilinear(prec, attr_offset_[i], 0,
                                                 pdr, dri, pds, ds_);
                    }
                    extra += caches_[i].diag[c][rid];
                    CountAdds(3);
                  }
                  for (size_t j = i + 1; j < q_; ++j) {
                    const int64_t rid_j = keys[rel_->FkKeyIndex(j)];
                    const double* pdj = caches_[j].pd[c].Row(rid_j).data();
                    const size_t drj = rel_->dr(j);
                    const double cross =
                        la::Bilinear(prec, attr_offset_[i], attr_offset_[j],
                                     pdr, dri, pdj, drj);
                    if (opt_.exploit_symmetry) {
                      extra += 2.0 * cross;
                      CountMults(1);
                    } else {
                      extra += cross + la::Bilinear(prec, attr_offset_[j],
                                                    attr_offset_[i], pdj,
                                                    drj, pdr, dri);
                    }
                    CountAdds(2);
                  }
                }
                qbuf(c, r) += extra;
              }
            }
          }
          // Posterior row-at-a-time: identical exp stream to scalar.
          for (size_t r = 0; r < rows; ++r) {
            for (size_t c = 0; c < k_; ++c) {
              acc.logp[c] = density_.log_coeff[c] - 0.5 * qbuf(c, r);
            }
            double* gamma = resp_.Row(base + static_cast<int64_t>(r));
            acc.ll +=
                internal::PosteriorFromLogps(acc.logp.data(), k_, gamma);
            for (size_t c = 0; c < k_; ++c) acc.n_k[c] += gamma[c];
          }
          break;
        }
        case kMeanStep: {
          for (size_t c = 0; c < k_; ++c) {
            for (size_t r = 0; r < rows; ++r) {
              gbuf[r] = resp_.Row(base + static_cast<int64_t>(r))[c];
            }
            kern.colsum_strip(cols.data(), ds_, rows, gbuf.data(),
                              acc.mu_sum.data() + c * ds_);
            CountMults(rows * ds_);  // the per-row Axpy(gamma, xs) stream
            CountAdds(rows * ds_);
            // Per-rid responsibility mass: scatter in row order — every
            // slot accumulates the same gamma sequence as the scalar
            // loop, so the merge (and the shard wire) stay bit-identical.
            for (size_t i = 0; i < q_; ++i) {
              kern.scatter_add_strip(ridbuf[i].data() + row0, gbuf.data(),
                                     rows, acc.gsum[i][c].data());
            }
            CountAdds(rows * q_);
          }
          break;
        }
        case kCovStep: {
          for (size_t c = 0; c < k_; ++c) {
            const double* mu = params_.mu.Row(c).data();
            for (size_t i = 0; i < ds_; ++i) {
              const double* xi = cols[i];
              double* di = diffm.data() + i * rows;
              for (size_t r = 0; r < rows; ++r) di[r] = xi[r] - mu[i];
              dptr[i] = di;
            }
            CountSubs(rows * ds_);
            for (size_t r = 0; r < rows; ++r) {
              gbuf[r] = resp_.Row(base + static_cast<int64_t>(r))[c];
            }
            Matrix& sg = acc.sigma[c];
            kern.syrk_strip(dptr.data(), ds_, rows, gbuf.data(), sg.data(),
                            sg.cols());
            CountMults(rows * (ds_ * ds_ + ds_));  // the S-diag AddOuter
            CountAdds(rows * ds_ * ds_);
            // Table-0 cross blocks per FK1 run: the responsibility-
            // weighted centered-row sum collapses the run to ONE outer
            // product per R1 tuple (and its mirror without symmetry).
            for (const auto& g : groups) {
              const size_t lo = std::max(g.offset, row0);
              const size_t hi = std::min(g.offset + g.count, row0 + rows);
              if (lo >= hi) continue;
              const size_t rn = hi - lo;
              const size_t ll = lo - row0;
              const double* pdr = caches_[0].pd[c].Row(g.rid).data();
              for (size_t i = 0; i < ds_; ++i) {
                dptr[i] = diffm.data() + i * rows + ll;
              }
              std::fill(wsum.begin(), wsum.end(), 0.0);
              kern.colsum_strip(dptr.data(), ds_, rn, gbuf.data() + ll,
                                wsum.data());
              kern.add_outer(1.0, wsum.data(), ds_, pdr, dr0,
                             sg.data() + attr_offset_[0], sg.cols());
              CountMults(rn * (ds_ * dr0 + ds_));  // the S x R0 AddOuter
              CountAdds(rn * ds_ * dr0);
              if (!opt_.exploit_symmetry) {
                kern.add_outer(1.0, pdr, dr0, wsum.data(), ds_,
                               sg.data() + attr_offset_[0] * sg.cols(),
                               sg.cols());
                CountMults(rn * (dr0 * ds_ + dr0));
                CountAdds(rn * dr0 * ds_);
              }
            }
            // Multi-way tables and cross pairs row-at-a-time (gathered
            // centered S slice), exactly the scalar code.
            if (q_ > 1) {
              for (size_t r = 0; r < rows; ++r) {
                double* pds = acc.diff.data();
                for (size_t i = 0; i < ds_; ++i) {
                  pds[i] = diffm[i * rows + r];
                }
                const double gamma_c = gbuf[r];
                const int64_t* keys = s_rows.KeysOf(row0 + r);
                for (size_t i = 0; i < q_; ++i) {
                  const int64_t rid = keys[rel_->FkKeyIndex(i)];
                  const double* pdr = caches_[i].pd[c].Row(rid).data();
                  const size_t dri = rel_->dr(i);
                  if (i >= 1) {
                    la::AddOuter(gamma_c, pds, ds_, pdr, dri, &sg, 0,
                                 attr_offset_[i]);
                    if (!opt_.exploit_symmetry) {
                      la::AddOuter(gamma_c, pdr, dri, pds, ds_, &sg,
                                   attr_offset_[i], 0);
                    }
                  }
                  for (size_t j = i + 1; j < q_; ++j) {
                    const int64_t rid_j = keys[rel_->FkKeyIndex(j)];
                    const double* pdj = caches_[j].pd[c].Row(rid_j).data();
                    const size_t drj = rel_->dr(j);
                    la::AddOuter(gamma_c, pdr, dri, pdj, drj, &sg,
                                 attr_offset_[i], attr_offset_[j]);
                    if (!opt_.exploit_symmetry) {
                      la::AddOuter(gamma_c, pdj, drj, pdr, dri, &sg,
                                   attr_offset_[j], attr_offset_[i]);
                    }
                  }
                }
              }
            }
          }
          break;
        }
      }
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  void MergeWorker(int pass, int worker) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    switch (pass) {
      case kEStep:
        ll_sum_ += acc.ll;
        for (size_t c = 0; c < k_; ++c) resp_.n_k[c] += acc.n_k[c];
        break;
      case kMeanStep:
        for (size_t j = 0; j < mu_sum_.size(); ++j) mu_sum_[j] += acc.mu_sum[j];
        if (factorized_) {
          // Table 0's span-sized slot lands at its span offset of the
          // full-domain merged state; further tables merge full-domain.
          const auto off0 = static_cast<size_t>(
              slot_spans_[static_cast<size_t>(worker)].begin);
          for (size_t i = 0; i < q_; ++i) {
            for (size_t c = 0; c < k_; ++c) {
              double* dst = gsum_[i][c].data() + (i == 0 ? off0 : 0);
              const auto& src = acc.gsum[i][c];
              for (size_t j = 0; j < src.size(); ++j) dst[j] += src[j];
            }
          }
        }
        break;
      case kCovStep:
        for (size_t c = 0; c < k_; ++c) sigma_sum_[c].Add(acc.sigma[c]);
        break;
    }
  }

  void VisitSlotState(
      int pass, int slot,
      const std::function<void(double*, size_t)>& visit) override {
    // Shard-plane wire seam: the merged state of one accumulator slot,
    // per pass. logp/diff are scratch and the responsibilities (resp_)
    // are per-rid state resident with the rid's shard — neither crosses
    // the wire.
    Acc& acc = acc_[static_cast<size_t>(slot)];
    switch (pass) {
      case kEStep:
        visit(&acc.ll, 1);
        visit(acc.n_k.data(), acc.n_k.size());
        break;
      case kMeanStep:
        visit(acc.mu_sum.data(), acc.mu_sum.size());
        if (factorized_) {
          for (size_t i = 0; i < q_; ++i) {
            for (size_t c = 0; c < k_; ++c) {
              visit(acc.gsum[i][c].data(), acc.gsum[i][c].size());
            }
          }
        }
        break;
      case kCovStep:
        for (size_t c = 0; c < k_; ++c) {
          visit(acc.sigma[c].data(), acc.sigma[c].rows() * acc.sigma[c].cols());
        }
        break;
    }
  }

  /// The mean pass's EndPass (below) rewrites params_.mu mid-iteration,
  /// so a cov-pass rescan on a surviving shard worker would recompute the
  /// E-step's responsibilities against the NEW means — not the state the
  /// dead worker accumulated under. The e_step and m_step_mean passes
  /// only read BeginPass-time parameters and are exactly replayable.
  bool ShardRecoverableAtPass(int pass) const override {
    return pass <= kMeanStep;
  }

  Status EndPass(const PipelineContext& ctx, int /*iter*/, int pass) override {
    switch (pass) {
      case kEStep:
        break;
      case kMeanStep: {
        // Deferred m-step work outside the scan: reported as "finalize"
        // next to the e_step / m_step_* pass times.
        core::PhaseScope phase(ctx.report, "finalize");
        if (!factorized_) {
          for (size_t c = 0; c < k_; ++c) {
            const double inv_nk = 1.0 / std::max(resp_.n_k[c], 1e-300);
            for (size_t j = 0; j < d_; ++j) {
              params_.mu(c, j) = mu_sum_[c * d_ + j] * inv_nk;
            }
            CountMults(d_);
          }
          break;
        }
        // Factorized mean update (Eq. 22): the S slice from the per-tuple
        // sums, the R slices from per-rid responsibility mass times the
        // attribute features.
        for (size_t c = 0; c < k_; ++c) {
          const double inv_nk = 1.0 / std::max(resp_.n_k[c], 1e-300);
          double* mu_row = params_.mu.Row(c).data();
          for (size_t j = 0; j < ds_; ++j) {
            mu_row[j] = mu_sum_[c * ds_ + j] * inv_nk;
          }
          CountMults(ds_);
          for (size_t i = 0; i < q_; ++i) {
            const Matrix& feats = (*ctx.views)[i].feats();
            const size_t dri = feats.cols();
            double* slice = mu_row + attr_offset_[i];
            std::fill(slice, slice + dri, 0.0);
            for (size_t rid = 0; rid < feats.rows(); ++rid) {
              la::Axpy(gsum_[i][c][rid], feats.Row(rid).data(), slice, dri);
            }
            for (size_t j = 0; j < dri; ++j) slice[j] *= inv_nk;
            CountMults(dri);
          }
        }
        break;
      }
      case kCovStep: {
        core::PhaseScope phase(ctx.report, "finalize");
        if (factorized_ && opt_.exploit_symmetry) {
          // Mirror the cross blocks that were accumulated single-sided: the
          // covariance accumulator is symmetric, so LL = UR^T exactly (one
          // O(d^2) copy per component per pass instead of per fact tuple).
          for (size_t c = 0; c < k_; ++c) {
            Matrix& acc = sigma_sum_[c];
            for (size_t i = 0; i < q_; ++i) {
              const size_t dri = rel_->dr(i);
              for (size_t a = 0; a < ds_; ++a) {
                for (size_t b2 = 0; b2 < dri; ++b2) {
                  acc(attr_offset_[i] + b2, a) = acc(a, attr_offset_[i] + b2);
                }
              }
              for (size_t j = i + 1; j < q_; ++j) {
                const size_t drj = rel_->dr(j);
                for (size_t a = 0; a < dri; ++a) {
                  for (size_t b2 = 0; b2 < drj; ++b2) {
                    acc(attr_offset_[j] + b2, attr_offset_[i] + a) =
                        acc(attr_offset_[i] + a, attr_offset_[j] + b2);
                  }
                }
              }
            }
          }
        }
        if (factorized_) {
          // Deferred diagonal blocks: one outer product per R tuple, scaled
          // by the responsibility mass of its matching fact tuples (gsum
          // reuses the responsibilities accumulated in the mean pass —
          // same gamma).
          for (size_t c = 0; c < k_; ++c) {
            for (size_t i = 0; i < q_; ++i) {
              const size_t dri = rel_->dr(i);
              const size_t n_ri = caches_[i].pd[c].rows();
              for (size_t rid = 0; rid < n_ri; ++rid) {
                const double* pdr = caches_[i].pd[c].Row(rid).data();
                la::AddOuter(gsum_[i][c][rid], pdr, dri, pdr, dri,
                             &sigma_sum_[c], attr_offset_[i],
                             attr_offset_[i]);
              }
            }
          }
        }
        for (size_t c = 0; c < k_; ++c) {
          sigma_sum_[c].Scale(1.0 / std::max(resp_.n_k[c], 1e-300));
          for (size_t j = 0; j < d_; ++j) {
            sigma_sum_[c](j, j) += opt_.cov_reg;
          }
          params_.sigma[c] = sigma_sum_[c];
          params_.pi[c] = resp_.n_k[c] / static_cast<double>(n_);
        }
        break;
      }
    }
    return Status::OK();
  }

  Result<bool> EndIteration(const PipelineContext&, int) override {
    const bool stop = internal::Converged(loglik_, ll_sum_, opt_.tol);
    loglik_ = ll_sum_;
    return stop;
  }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    // Cross-iteration state: the parameters and the convergence scalar.
    // resp_ and every accumulator are rebuilt by the next e_step.
    visit(params_.mu.data(), params_.mu.rows() * params_.mu.cols());
    for (size_t c = 0; c < k_; ++c) {
      visit(params_.sigma[c].data(),
            params_.sigma[c].rows() * params_.sigma[c].cols());
    }
    visit(params_.pi.data(), params_.pi.size());
    visit(&loglik_, 1);
  }

  double Objective() const override { return loglik_; }

  GmmParams&& TakeParams() && { return std::move(params_); }

 private:
  enum Pass { kEStep = 0, kMeanStep = 1, kCovStep = 2 };

  /// Per-worker accumulators and scratch; merged in worker order.
  struct Acc {
    double ll = 0.0;
    std::vector<double> n_k;
    std::vector<double> logp;
    std::vector<double> diff;     // centered row (d) or S slice (ds)
    std::vector<double> mu_sum;   // k * d (dense) or k * ds (factorized)
    std::vector<std::vector<std::vector<double>>> gsum;  // [i][c][rid]
    std::vector<Matrix> sigma;    // k of d x d
  };

  const join::NormalizedRelations* rel_ = nullptr;
  bool factorized_ = false;
  size_t k_ = 0, d_ = 0, ds_ = 0, q_ = 0, y_off_ = 0;
  int64_t n_ = 0;
  std::vector<size_t> attr_offset_;

  GmmParams params_;
  GmmDensity density_;
  Responsibilities resp_;
  std::vector<CenteredCache> caches_;
  std::vector<Acc> acc_;
  /// Table-0 rid span per accumulator slot (the rid-span contract),
  /// refreshed every BeginPass from the strategy's published plan.
  std::vector<exec::Range> slot_spans_;

  double ll_sum_ = 0.0;
  double loglik_ = 0.0;
  std::vector<double> mu_sum_;
  std::vector<std::vector<std::vector<double>>> gsum_;  // [i][c][rid]
  std::vector<Matrix> sigma_sum_;
  // Last: the inherited RuntimeOptions block (unused by the program)
  // makes it ~250 bytes, which would push every member above into long
  // displacements in the accumulate loops.
  GmmOptions opt_;
};

Result<GmmParams> TrainGmmWith(const join::NormalizedRelations& rel,
                               const GmmOptions& options,
                               core::Algorithm algorithm,
                               storage::BufferPool* pool,
                               core::TrainReport* report) {
  GmmProgram program(options);
  core::pipeline::StrategyOptions sopt(options);
  if (sopt.shard_backend == "process") {
    sopt.shard_job_family = "gmm";
    sopt.shard_job_blob = EncodeShardJob(options);
  }
  FML_RETURN_IF_ERROR(
      core::pipeline::RunTraining(rel, algorithm, sopt, &program, pool,
                                  report));
  return std::move(program).TakeParams();
}

}  // namespace

std::string EncodeShardJob(const GmmOptions& options) {
  net::ByteWriter w;
  w.U64(options.num_components);
  w.I64(options.max_iters);
  w.F64(options.tol);
  w.F64(options.init_spread);
  w.F64(options.cov_reg);
  w.U8(static_cast<uint8_t>(options.init));
  w.U64(options.seed);
  w.U8(options.exploit_symmetry ? 1 : 0);
  return w.Take();
}

Result<GmmOptions> DecodeShardJob(const std::string& blob) {
  GmmOptions options;
  net::ByteReader r(blob);
  uint64_t k = 0;
  int64_t max_iters = 0;
  uint8_t init = 0, symmetry = 0;
  FML_RETURN_IF_ERROR(r.U64(&k));
  FML_RETURN_IF_ERROR(r.I64(&max_iters));
  FML_RETURN_IF_ERROR(r.F64(&options.tol));
  FML_RETURN_IF_ERROR(r.F64(&options.init_spread));
  FML_RETURN_IF_ERROR(r.F64(&options.cov_reg));
  FML_RETURN_IF_ERROR(r.U8(&init));
  FML_RETURN_IF_ERROR(r.U64(&options.seed));
  FML_RETURN_IF_ERROR(r.U8(&symmetry));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("gmm shard job: trailing bytes");
  }
  options.num_components = k;
  options.max_iters = static_cast<int>(max_iters);
  options.init = static_cast<GmmInit>(init);
  options.exploit_symmetry = symmetry != 0;
  return options;
}

std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const GmmOptions& options) {
  return std::make_unique<GmmProgram>(options);
}

Result<GmmParams> TrainGmmMaterialized(const join::NormalizedRelations& rel,
                                       const GmmOptions& options,
                                       storage::BufferPool* pool,
                                       core::TrainReport* report) {
  return TrainGmmWith(rel, options, core::Algorithm::kMaterialized, pool,
                      report);
}

Result<GmmParams> TrainGmmStreaming(const join::NormalizedRelations& rel,
                                    const GmmOptions& options,
                                    storage::BufferPool* pool,
                                    core::TrainReport* report) {
  return TrainGmmWith(rel, options, core::Algorithm::kStreaming, pool,
                      report);
}

Result<GmmParams> TrainGmmFactorized(const join::NormalizedRelations& rel,
                                     const GmmOptions& options,
                                     storage::BufferPool* pool,
                                     core::TrainReport* report) {
  return TrainGmmWith(rel, options, core::Algorithm::kFactorized, pool,
                      report);
}

}  // namespace factorml::gmm
