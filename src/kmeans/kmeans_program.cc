// Lloyd's k-means as a core/pipeline ModelProgram: one "assign" full pass
// per iteration computes the nearest centroid, the inertia and the
// per-cluster statistics; EndPass recomputes the centroids. The factorized
// path reuses the F-GMM centered-cache idea in its purest form: squared
// Euclidean distance decomposes over the join's column blocks with no
// cross terms, so ||x - mu_c||^2 = ||xs - mu_c,S||^2 + sum_i D_i[c][rid_i]
// where D_i[c][rid] = ||x_Ri - mu_c,Ri||^2 is computed once per attribute
// tuple per pass and reused for every matching fact tuple. Centroid
// updates factorize like F-GMM's mean step: per-rid assignment mass
// replaces per-fact-tuple feature sums for the attribute slices.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/opcount.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "kmeans/kmeans.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace factorml::kmeans {

namespace {

using core::pipeline::DenseBlock;
using core::pipeline::FactorizedBlock;
using core::pipeline::InvalidOption;
using core::pipeline::PipelineContext;
using la::Matrix;

/// Squared distance between x and mu (length d), with the cost-model
/// charges: d subtractions, d multiplies, d adds.
inline double SquaredDistance(const double* x, const double* mu, size_t d) {
  double dist = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double diff = x[j] - mu[j];
    dist += diff * diff;
  }
  CountSubs(d);
  CountMults(d);
  CountAdds(d);
  return dist;
}

class KmeansProgram final : public core::pipeline::ModelProgram {
 public:
  explicit KmeansProgram(const KmeansOptions& options) : opt_(options) {}

  const char* Name() const override { return "KMEANS"; }
  const char* TempStem() const override { return "kmeans"; }
  uint32_t Capabilities() const override {
    return core::pipeline::kFullPass | core::pipeline::kFactorized;
  }
  int MaxIterations() const override { return opt_.max_iters; }
  const char* PassName(int) const override { return "assign"; }

  Status ValidateOptions(const join::NormalizedRelations& rel) const override {
    if (opt_.num_clusters == 0 ||
        static_cast<int64_t>(opt_.num_clusters) > rel.s.num_rows()) {
      return Status::InvalidArgument(
          "kmeans: num_clusters (--k) must be in [1, num data points]");
    }
    if (opt_.max_iters < 1) {
      return InvalidOption("kmeans", "max_iters", "iters", ">= 1",
                           opt_.max_iters);
    }
    if (!std::isfinite(opt_.tol)) {
      return InvalidOption("kmeans", "tol", "tol", "finite", opt_.tol);
    }
    return Status::OK();
  }

  Status Init(const PipelineContext& ctx) override {
    rel_ = ctx.rel;
    factorized_ = ctx.factorized();
    k_ = opt_.num_clusters;
    d_ = rel_->total_dims();
    ds_ = rel_->ds();
    q_ = rel_->num_joins();
    y_off_ = rel_->has_target ? 1 : 0;
    n_ = rel_->s.num_rows();
    attr_offset_.resize(q_);
    for (size_t i = 0; i < q_; ++i) attr_offset_[i] = rel_->FeatureOffset(i + 1);

    // Deterministic seeds: joined rows spread evenly through S — the same
    // initialization rule as GmmInit::kSpreadRows, shared via the pipeline.
    std::vector<int64_t> rows(k_);
    for (size_t c = 0; c < k_; ++c) {
      rows[c] = static_cast<int64_t>(c) * n_ / static_cast<int64_t>(k_);
    }
    FML_ASSIGN_OR_RETURN(model_.centroids,
                         core::pipeline::AssembleJoinedRows(*rel_, ctx.pool,
                                                            rows));
    model_.counts.assign(k_, 0.0);
    prev_inertia_ = std::numeric_limits<double>::infinity();
    return Status::OK();
  }

  Status BeginPass(const PipelineContext& ctx, int, int, int workers) override {
    if (factorized_) {
      // Once per attribute tuple per pass: the per-cluster squared
      // distance of its feature slice (the reusable diagonal block; cf.
      // F-GMM's centered caches, Eq. 20, but with no cross terms).
      dcache_.resize(q_);
      for (size_t i = 0; i < q_; ++i) {
        const Matrix& feats = (*ctx.views)[i].feats();
        const size_t n_ri = feats.rows();
        const size_t dri = feats.cols();
        dcache_[i].Resize(k_, n_ri);
        for (size_t c = 0; c < k_; ++c) {
          const double* mu_slice =
              model_.centroids.Row(c).data() + attr_offset_[i];
          for (size_t rid = 0; rid < n_ri; ++rid) {
            dcache_[i](c, rid) =
                SquaredDistance(feats.Row(rid).data(), mu_slice, dri);
          }
        }
      }
    }
    inertia_sum_ = 0.0;
    counts_.assign(k_, 0.0);
    const size_t slice = factorized_ ? ds_ : d_;
    acc_.resize(static_cast<size_t>(workers));
    if (factorized_) {
      // Rid-span contract: slot w's table-0 assignment mass covers only
      // its morsel's rid span; the merged full-domain gsum_ is allocated
      // here (EndPass clears it) and slots land at their span offset.
      const int64_t n_r0 = static_cast<int64_t>((*ctx.views)[0].feats().rows());
      slot_spans_.resize(static_cast<size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        slot_spans_[static_cast<size_t>(w)] =
            core::pipeline::SlotRidSpan(ctx, w, n_r0);
      }
      gsum_.resize(q_);
      for (size_t i = 0; i < q_; ++i) {
        gsum_[i].Resize(k_, (*ctx.views)[i].feats().rows());
      }
    }
    for (size_t w = 0; w < acc_.size(); ++w) {
      Acc& acc = acc_[w];
      acc.inertia = 0.0;
      acc.counts.assign(k_, 0.0);
      acc.sums.assign(k_ * slice, 0.0);
      if (factorized_) {
        acc.gsum.resize(q_);
        for (size_t i = 0; i < q_; ++i) {
          const size_t n_ri =
              i == 0 ? static_cast<size_t>(slot_spans_[w].size())
                     : (*ctx.views)[i].feats().rows();
          acc.gsum[i].Resize(k_, n_ri);
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
      size_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k_; ++c) {
        const double dist =
            SquaredDistance(x, model_.centroids.Row(c).data(), d_);
        if (dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      acc.inertia += best_dist;
      acc.counts[best] += 1.0;
      la::Axpy(1.0, x, acc.sums.data() + best * d_, d_);
      CountAdds(2);
    }
  }

  /// Batched (--kernels=simd) twin of the dense row loop: one distance
  /// block per centroid via dist_strip, then a per-row argmin over the
  /// block with the same strict-< first-wins tie rule as the row path.
  /// The per-column scatter into sums visits each accumulator entry in
  /// the same row order as the scalar loop. Charges are the exact per-row
  /// op counts.
  void AccumulateDenseStrips(int worker, const DenseBlock& block) {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::ColumnStrips& st = *block.strips;
    const la::Kernels& kern = la::Active();
    std::vector<const double*> cols(d_);
    Matrix dist(k_, st.strip_rows);
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      for (size_t j = 0; j < d_; ++j) cols[j] = block.StripX(s, j);
      for (size_t c = 0; c < k_; ++c) {
        kern.dist_strip(cols.data(), d_, rows, model_.centroids.Row(c).data(),
                        dist.Row(c).data());
      }
      CountSubs(rows * k_ * d_);
      CountMults(rows * k_ * d_);
      CountAdds(rows * k_ * d_);
      for (size_t r = 0; r < rows; ++r) {
        size_t best = 0;
        double best_dist = std::numeric_limits<double>::infinity();
        for (size_t c = 0; c < k_; ++c) {
          const double dc = dist(c, r);
          if (dc < best_dist) {
            best_dist = dc;
            best = c;
          }
        }
        acc.inertia += best_dist;
        acc.counts[best] += 1.0;
        double* sum = acc.sums.data() + best * d_;
        for (size_t j = 0; j < d_; ++j) sum[j] += cols[j][r];
      }
      CountMults(rows * d_);  // the per-row Axpy(1.0, x) stream
      CountAdds(rows * (d_ + 2));
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  /// Factorized twin: the S-slice distances come from dist_strip over the
  /// strip-packed S columns; the cached per-attribute-tuple distances land
  /// on the distance block through gather_add_strip over the FK rid
  /// columns (i-ascending per element, so the totals — and hence the
  /// argmin — are bit-identical to the scalar loop), and the per-rid
  /// assignment mass scatters through scatter_add_strip on flattened
  /// (best, rid) indices in row order. Only the argmin/inertia/sums stay
  /// row-at-a-time. Charges are the exact per-row op counts.
  void AccumulateFactorizedStrips(int worker, const FactorizedBlock& block) {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::RowBatch& s_rows = *block.s_rows;
    const storage::ColumnStrips& st = *block.s_strips;
    const la::Kernels& kern = la::Active();
    std::vector<const double*> cols(ds_);
    Matrix dist(k_, st.strip_rows);
    // FK rid columns, one per attribute table (uncharged index movement,
    // the strip twin of the per-row KeysOf reads).
    std::vector<std::vector<int64_t>> ridx(q_);
    for (size_t i = 0; i < q_; ++i) {
      ridx[i].resize(s_rows.num_rows);
      for (size_t r = 0; r < s_rows.num_rows; ++r) {
        ridx[i][r] = s_rows.KeysOf(r)[rel_->FkKeyIndex(i)];
      }
    }
    std::vector<size_t> best(st.strip_rows);
    std::vector<int64_t> idx(st.strip_rows);
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      const size_t row0 = st.StripStart(s);
      for (size_t j = 0; j < ds_; ++j) cols[j] = st.Col(s, y_off_ + j);
      for (size_t c = 0; c < k_; ++c) {
        kern.dist_strip(cols.data(), ds_, rows, model_.centroids.Row(c).data(),
                        dist.Row(c).data());
        for (size_t i = 0; i < q_; ++i) {
          kern.gather_add_strip(dcache_[i].Row(c).data(),
                                ridx[i].data() + row0, rows,
                                dist.Row(c).data());
        }
      }
      CountSubs(rows * k_ * ds_);
      CountMults(rows * k_ * ds_);
      CountAdds(rows * k_ * ds_);
      CountAdds(rows * k_ * q_);  // the cached per-join distance adds
      for (size_t r = 0; r < rows; ++r) {
        size_t b = 0;
        double best_dist = std::numeric_limits<double>::infinity();
        for (size_t c = 0; c < k_; ++c) {
          const double dc = dist(c, r);
          if (dc < best_dist) {
            best_dist = dc;
            b = c;
          }
        }
        best[r] = b;
        acc.inertia += best_dist;
        acc.counts[b] += 1.0;
        double* sum = acc.sums.data() + b * ds_;
        for (size_t j = 0; j < ds_; ++j) sum[j] += cols[j][r];
      }
      // Assignment mass per rid: unit-weight scatter on flattened
      // (best, rid) slots, row-ascending like the scalar loop. Table 0
      // flattens by its span-sized slot (rebased rids).
      const exec::Range span0 = slot_spans_[static_cast<size_t>(worker)];
      for (size_t i = 0; i < q_; ++i) {
        const int64_t n_ri = i == 0
                                 ? span0.size()
                                 : static_cast<int64_t>(dcache_[i].cols());
        const int64_t base = i == 0 ? span0.begin : 0;
        for (size_t r = 0; r < rows; ++r) {
          idx[r] = static_cast<int64_t>(best[r]) * n_ri +
                   (ridx[i][row0 + r] - base);
        }
        kern.scatter_add_strip(idx.data(), /*w=*/nullptr, rows,
                               acc.gsum[i].data());
      }
      CountMults(rows * ds_);  // the per-row Axpy(1.0, xs) stream
      CountAdds(rows * ds_);
      CountAdds(rows * (2 + q_));
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  void AccumulateFactorized(int, int worker,
                            const FactorizedBlock& block) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    if (block.s_strips != nullptr) {
      AccumulateFactorizedStrips(worker, block);
      return;
    }
    const storage::RowBatch& s_rows = *block.s_rows;
    for (size_t r = 0; r < s_rows.num_rows; ++r) {
      const double* xs = s_rows.feats.Row(r).data() + y_off_;
      const int64_t* keys = s_rows.KeysOf(r);
      size_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k_; ++c) {
        // Block-separable distance: the S slice plus one cached scalar
        // per attribute table.
        double dist = SquaredDistance(xs, model_.centroids.Row(c).data(),
                                      ds_);
        for (size_t i = 0; i < q_; ++i) {
          dist += dcache_[i](c, keys[rel_->FkKeyIndex(i)]);
        }
        CountAdds(q_);
        if (dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      acc.inertia += best_dist;
      acc.counts[best] += 1.0;
      la::Axpy(1.0, xs, acc.sums.data() + best * ds_, ds_);
      const int64_t base0 = slot_spans_[static_cast<size_t>(worker)].begin;
      for (size_t i = 0; i < q_; ++i) {
        const int64_t rid = keys[rel_->FkKeyIndex(i)];
        acc.gsum[i](best, static_cast<size_t>(i == 0 ? rid - base0 : rid)) +=
            1.0;
      }
      CountAdds(2 + q_);
    }
  }

  void MergeWorker(int, int worker) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    inertia_sum_ += acc.inertia;
    for (size_t c = 0; c < k_; ++c) counts_[c] += acc.counts[c];
    if (sums_.size() != acc.sums.size()) sums_.assign(acc.sums.size(), 0.0);
    for (size_t j = 0; j < sums_.size(); ++j) sums_[j] += acc.sums[j];
    if (factorized_) {
      // Table 0's span-sized slot adds into its span's columns of the
      // full-domain merged matrix; further tables add full-domain.
      const auto off0 = static_cast<size_t>(
          slot_spans_[static_cast<size_t>(worker)].begin);
      for (size_t i = 0; i < q_; ++i) {
        if (i == 0) {
          const size_t len = acc.gsum[0].cols();
          for (size_t c = 0; c < k_; ++c) {
            double* dst = gsum_[0].Row(c).data() + off0;
            const double* src = acc.gsum[0].Row(c).data();
            for (size_t j = 0; j < len; ++j) dst[j] += src[j];
          }
        } else {
          gsum_[i].Add(acc.gsum[i]);
        }
      }
    }
  }

  void VisitSlotState(
      int, int slot,
      const std::function<void(double*, size_t)>& visit) override {
    // Shard-plane wire seam: one slot's assignment statistics (and, on
    // the factorized path, its per-rid assignment mass).
    Acc& acc = acc_[static_cast<size_t>(slot)];
    visit(&acc.inertia, 1);
    visit(acc.counts.data(), acc.counts.size());
    visit(acc.sums.data(), acc.sums.size());
    if (factorized_) {
      for (size_t i = 0; i < q_; ++i) {
        visit(acc.gsum[i].data(), acc.gsum[i].rows() * acc.gsum[i].cols());
      }
    }
  }

  Status EndPass(const PipelineContext& ctx, int, int) override {
    // Lloyd update; empty clusters keep their previous centroid (a
    // deterministic rule shared by all strategies). Reported as the
    // "update" phase next to the "assign" pass time.
    core::PhaseScope phase(ctx.report, "update");
    if (!factorized_) {
      for (size_t c = 0; c < k_; ++c) {
        if (counts_[c] == 0.0) continue;
        const double inv = 1.0 / counts_[c];
        for (size_t j = 0; j < d_; ++j) {
          model_.centroids(c, j) = sums_[c * d_ + j] * inv;
        }
        CountMults(d_);
      }
    } else {
      for (size_t c = 0; c < k_; ++c) {
        if (counts_[c] == 0.0) continue;
        const double inv = 1.0 / counts_[c];
        double* mu_row = model_.centroids.Row(c).data();
        for (size_t j = 0; j < ds_; ++j) mu_row[j] = sums_[c * ds_ + j] * inv;
        CountMults(ds_);
        // Attribute slices from per-rid assignment mass — F-GMM's
        // factorized mean update (Eq. 22) with hard assignments.
        for (size_t i = 0; i < q_; ++i) {
          const Matrix& feats = (*ctx.views)[i].feats();
          const size_t dri = feats.cols();
          double* slice = mu_row + attr_offset_[i];
          std::fill(slice, slice + dri, 0.0);
          for (size_t rid = 0; rid < feats.rows(); ++rid) {
            const double g = gsum_[i](c, rid);
            if (g == 0.0) continue;
            la::Axpy(g, feats.Row(rid).data(), slice, dri);
          }
          for (size_t j = 0; j < dri; ++j) slice[j] *= inv;
          CountMults(dri);
        }
      }
      gsum_.clear();
    }
    sums_.clear();
    model_.counts = counts_;
    model_.inertia = inertia_sum_;
    return Status::OK();
  }

  Result<bool> EndIteration(const PipelineContext&, int) override {
    const bool stop = opt_.tol > 0.0 &&
                      std::isfinite(prev_inertia_) &&
                      std::fabs(inertia_sum_ - prev_inertia_) <
                          opt_.tol * std::fabs(inertia_sum_);
    prev_inertia_ = inertia_sum_;
    return stop;
  }

  double Objective() const override { return model_.inertia; }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    // Cross-iteration state: centroids, the per-cluster counts and the
    // inertia scalars; dcache_ and the accumulators are rebuilt by the
    // next BeginPass.
    visit(model_.centroids.data(),
          model_.centroids.rows() * model_.centroids.cols());
    visit(model_.counts.data(), model_.counts.size());
    visit(&model_.inertia, 1);
    visit(&inertia_sum_, 1);
    visit(&prev_inertia_, 1);
  }

  KmeansModel&& TakeModel() && { return std::move(model_); }

 private:
  struct Acc {
    double inertia = 0.0;
    std::vector<double> counts;  // k
    std::vector<double> sums;    // k * d (dense) or k * ds (factorized)
    std::vector<Matrix> gsum;    // [i]: k x nRi assignment mass
  };

  const join::NormalizedRelations* rel_ = nullptr;
  bool factorized_ = false;
  size_t k_ = 0, d_ = 0, ds_ = 0, q_ = 0, y_off_ = 0;
  int64_t n_ = 0;
  std::vector<size_t> attr_offset_;

  KmeansModel model_;
  std::vector<Matrix> dcache_;  // [i]: k x nRi squared slice distances
  std::vector<Acc> acc_;
  /// Table-0 rid span per accumulator slot (the rid-span contract),
  /// refreshed every BeginPass from the strategy's published plan.
  std::vector<exec::Range> slot_spans_;
  double inertia_sum_ = 0.0;
  double prev_inertia_ = 0.0;
  std::vector<double> counts_;
  std::vector<double> sums_;
  std::vector<Matrix> gsum_;
  // Last: the inherited RuntimeOptions block (unused by the program)
  // makes it ~250 bytes, which would push every member above into long
  // displacements in the accumulate loops.
  KmeansOptions opt_;
};

}  // namespace

size_t KmeansModel::Assign(const double* x) const {
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids.rows(); ++c) {
    double dist = 0.0;
    const double* mu = centroids.Row(c).data();
    for (size_t j = 0; j < centroids.cols(); ++j) {
      const double diff = x[j] - mu[j];
      dist += diff * diff;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

double KmeansModel::MaxAbsDiff(const KmeansModel& a, const KmeansModel& b) {
  // Centroids only: inertia is a large sum compared with a relative
  // tolerance by the parity tests.
  return la::Matrix::MaxAbsDiff(a.centroids, b.centroids);
}

Result<KmeansModel> TrainKmeans(const join::NormalizedRelations& rel,
                                const KmeansOptions& options,
                                core::Algorithm algorithm,
                                storage::BufferPool* pool,
                                core::TrainReport* report) {
  KmeansProgram program(options);
  core::pipeline::StrategyOptions sopt(options);
  if (sopt.shard_backend == "process") {
    sopt.shard_job_family = "kmeans";
    sopt.shard_job_blob = EncodeShardJob(options);
  }
  FML_RETURN_IF_ERROR(
      core::pipeline::RunTraining(rel, algorithm, sopt, &program, pool,
                                  report));
  return std::move(program).TakeModel();
}

std::string EncodeShardJob(const KmeansOptions& options) {
  net::ByteWriter w;
  w.U64(options.num_clusters);
  w.I64(options.max_iters);
  w.F64(options.tol);
  return w.Take();
}

Result<KmeansOptions> DecodeShardJob(const std::string& blob) {
  KmeansOptions options;
  net::ByteReader r(blob);
  uint64_t k = 0;
  int64_t max_iters = 0;
  FML_RETURN_IF_ERROR(r.U64(&k));
  FML_RETURN_IF_ERROR(r.I64(&max_iters));
  FML_RETURN_IF_ERROR(r.F64(&options.tol));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("kmeans shard job: trailing bytes");
  }
  options.num_clusters = k;
  options.max_iters = static_cast<int>(max_iters);
  return options;
}

std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const KmeansOptions& options) {
  return std::make_unique<KmeansProgram>(options);
}

}  // namespace factorml::kmeans
