#ifndef FACTORML_CORE_PIPELINE_ACCESS_INTERNAL_H_
#define FACTORML_CORE_PIPELINE_ACCESS_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline/access_strategy.h"
#include "exec/morsel_queue.h"
#include "exec/parallel_for.h"
#include "exec/worker_pools.h"
#include "join/attribute_view.h"
#include "obs/trace.h"
#include "storage/page_cursor.h"

namespace factorml::core::pipeline::internal {

/// State shared by the three strategy drivers: the relations, the caller's
/// buffer pool, the full-pass morsel plan and the per-worker pools (built
/// once per training run so private pool contents persist across passes,
/// exactly like the hand-written trainers' WorkerPools did).
///
/// Two scheduling modes share one plan representation (`ranges_`):
///  - legacy (morsel_rows == 0): one static range per worker, accumulator
///    slot == worker, merged in worker order — the seed-exact path;
///  - chunked (morsel_rows > 0): fixed deterministically numbered chunks,
///    slot == chunk id, workers acquire chunks from the MorselQueue (with
///    stealing when enabled) and the reduction merges in chunk order, so
///    the result is invariant under thread count and steal schedule.
class StrategyBase : public AccessStrategy {
 public:
  int NumWorkers() const override { return nw_; }

  const std::vector<exec::Range>& MorselPlan() const override {
    return ranges_;
  }

  void SetShardScan(const exec::ShardPlan* plan,
                    ShardScanObserver* observer) override {
    FML_CHECK((plan == nullptr) == (observer == nullptr));
    FML_CHECK(plan == nullptr || chunked())
        << "sharding requires the chunk-ordered scheduler";
    shard_plan_ = plan;
    shard_observer_ = observer;
  }

  StrategyBase(const join::NormalizedRelations* rel,
               storage::BufferPool* pool, const StrategyOptions& options,
               bool full_pass)
      : rel_(rel),
        pool_(pool),
        batch_rows_(options.batch_rows),
        temp_dir_(options.temp_dir),
        threads_(options.threads),
        morsel_rows_(options.morsel_rows),
        steal_(options.steal),
        prefetch_(options.prefetch),
        prefetch_depth_(options.prefetch_depth < 1 ? 1
                                                   : options.prefetch_depth),
        simd_(options.kernels == la::KernelMode::kSimd),
        full_pass_(full_pass) {}

  /// Chunk-ordered scheduler active? (RunTraining resolves steal-without-
  /// morsel-rows to kDefaultMorselRows before strategies are created.)
  bool chunked() const { return morsel_rows_ > 0; }

  /// Scanner/cursor states and buffer pools one pass needs: the actual
  /// worker threads in chunked mode, one per static range otherwise.
  int pool_workers() const { return chunked() ? threads_ : nw_; }

  /// Installs the full-pass morsel plan — the per-worker static partition
  /// (legacy) or the deterministic chunk list (chunked). NumWorkers()
  /// becomes the accumulator slot count handed to ModelProgram::BeginPass.
  /// Also brings up the async I/O plane when prefetch is on: one
  /// Prefetcher serves every worker of the run (each request lands in the
  /// issuing worker's own pool).
  void BuildWorkers(std::vector<exec::Range> ranges) {
    ranges_ = std::move(ranges);
    nw_ = ranges_.empty() ? 1 : static_cast<int>(ranges_.size());
    pools_ = std::make_unique<exec::WorkerPools>(pool_, pool_workers());
    if (prefetch_ && prefetcher_ == nullptr) {
      // Wide (and capped) arithmetic: --prefetch-depth accepts anything
      // up to INT_MAX, and an in-flight cap beyond a few per worker buys
      // nothing.
      const int64_t inflight = std::min<int64_t>(
          1024, 2ll * pool_workers() * prefetch_depth_);
      prefetcher_ =
          std::make_unique<storage::Prefetcher>(static_cast<int>(inflight));
    }
  }

  /// The async plane, or null when --prefetch=off. Strategies attach it
  /// to their per-worker scanners/cursors (EnablePrefetch).
  storage::Prefetcher* prefetcher() const { return prefetcher_.get(); }

  /// Publishes the plan shape to the report (called from Prepare).
  void RecordMorselPlan(PipelineContext* ctx) const {
    if (ctx->report != nullptr) {
      ctx->report->morsel_chunks =
          chunked() ? static_cast<int64_t>(ranges_.size()) : 0;
    }
  }

  /// Drives one full pass over the morsel plan: body(range, slot, worker,
  /// next, status-slot) runs once per morsel; the caller then merges slots
  /// 0..NumWorkers()-1 in order. Legacy mode runs each worker's one static
  /// range (slot == worker); chunked mode lets workers acquire chunks from
  /// the scheduler, stealing when enabled (slot = chunk id). Steal counts
  /// and per-worker busy time accumulate into ctx.report; the returned
  /// status is the first error in slot order.
  ///
  /// `next` is the range of the worker's next scheduled chunk — the front
  /// of its own MorselQueue block, known deterministically from the morsel
  /// plan — or null at the block end, in legacy mode, or with prefetch
  /// off. Strategies hand it to the cursor plane so the next chunk's pages
  /// load while this chunk computes. (A stolen chunk's successor may
  /// belong to another worker's block; prefetch is then skipped rather
  /// than landed in the wrong worker's pool — residency is best-effort.)
  /// All prefetch requests are drained before returning, so the pass
  /// dispatcher's I/O delta covers them and no request outlives the pass.
  template <typename Body>
  Status DriveMorsels(const PipelineContext& ctx, const Body& body) {
    std::vector<Status> slot_status(static_cast<size_t>(nw_));
    // Static chunk ownership, same split as the MorselQueue's blocks.
    const std::vector<exec::Range> owned =
        (chunked() && prefetcher_ != nullptr)
            ? exec::PartitionRows(static_cast<int64_t>(ranges_.size()),
                                  pool_workers())
            : std::vector<exec::Range>{};
    const auto run_span = [&](exec::Range span) {
      // One "scan" span per scheduled chunk span: the whole plan when
      // unsharded, one per shard otherwise (nested under its shard_scan).
      obs::TraceSpan scan_span(obs::kCatPipeline, "scan");
      scan_span.Arg("chunk_begin", span.begin);
      scan_span.Arg2("chunk_end", span.end);
      const exec::MorselStats stats = exec::RunMorselSpan(
          ranges_, span, pool_workers(), chunked() && steal_,
          [&](exec::Range range, int64_t chunk, int worker) {
            const exec::Range* next = nullptr;
            const auto w = static_cast<size_t>(worker);
            if (w < owned.size() && chunk >= owned[w].begin &&
                chunk + 1 < std::min(owned[w].end, span.end)) {
              next = &ranges_[static_cast<size_t>(chunk) + 1];
            }
            body(range, static_cast<int>(chunk), worker, next,
                 &slot_status[static_cast<size_t>(chunk)]);
          });
      if (prefetcher_ != nullptr) prefetcher_->Drain();
      if (ctx.report != nullptr) {
        ctx.report->steals += stats.steals;
        auto& busy = ctx.report->worker_busy_seconds;
        if (busy.size() < stats.busy_seconds.size()) {
          busy.resize(stats.busy_seconds.size(), 0.0);
        }
        for (size_t w = 0; w < stats.busy_seconds.size(); ++w) {
          busy[w] += stats.busy_seconds[w];
        }
      }
    };
    if (shard_plan_ == nullptr) {
      run_span(exec::Range{0, static_cast<int64_t>(ranges_.size())});
      return exec::FirstError(slot_status);
    }
    // Shard plane armed: scan shard by shard in shard-id order. Ownership
    // blocks stay global (RunMorselSpan), so each worker visits its chunks
    // — and fills its buffer pool — in the same ascending order as the
    // unsharded run; the observer snapshots I/O and extracts the shard's
    // ShardDelta between spans, and the merge is left to the driver.
    for (int shard = 0; shard < shard_plan_->num_shards(); ++shard) {
      obs::TraceSpan shard_span(obs::kCatPipeline, "shard_scan");
      shard_span.Arg("shard", shard);
      run_span(shard_plan_->ChunkSpan(shard));
      FML_RETURN_IF_ERROR(shard_observer_->OnShardScanned(shard));
    }
    return exec::FirstError(slot_status);
  }

  /// The unsharded chunk-order reduction: merges slots 0..NumWorkers()-1
  /// on the calling thread. A no-op while the shard plane is armed — the
  /// ShardedDriver owns the merge there (delta round-trip first, same
  /// global slot order).
  void MergeSlots(ModelProgram* model, int pass) const {
    if (shard_plan_ != nullptr) return;
    for (int w = 0; w < nw_; ++w) model->MergeWorker(pass, w);
  }

  const join::NormalizedRelations* rel_;
  storage::BufferPool* pool_;
  size_t batch_rows_;
  std::string temp_dir_;
  int threads_;
  int64_t morsel_rows_;
  bool steal_;
  bool prefetch_;
  int prefetch_depth_;
  /// --kernels=simd: feed the model column-major strips (batched decode /
  /// assembly transpose) instead of row pointers. The la/ backend switch
  /// itself is global (la::SelectKernels, done once by RunTraining).
  bool simd_;
  bool full_pass_;
  std::vector<exec::Range> ranges_;
  int nw_ = 1;
  /// Armed by the ShardedDriver for the duration of a sharded RunPass.
  const exec::ShardPlan* shard_plan_ = nullptr;
  ShardScanObserver* shard_observer_ = nullptr;
  std::unique_ptr<exec::WorkerPools> pools_;
  /// Declared after pools_ so destruction drains the crew (Prefetcher's
  /// destructor) before the per-worker pools its requests land in go away.
  std::unique_ptr<storage::Prefetcher> prefetcher_;
};

/// Common ground of the S and F strategies: both stream the join through
/// JoinCursor over FK1-run morsels and reload the attribute views at every
/// pass / epoch (the per-pass join recompute of Fig. 1(b)/(c)).
class JoinStreamStrategyBase : public StrategyBase {
 public:
  Status Prepare(PipelineContext* ctx, const std::string& temp_stem) override {
    (void)temp_stem;
    FML_CHECK_GT(rel_->fk1_index.num_rids(), 0) << "BuildIndex() not called";
    views_.resize(rel_->num_joins());
    if (full_pass_) {
      BuildWorkers(chunked()
                       ? join::ChunkFk1Runs(rel_->fk1_index, morsel_rows_)
                       : join::PartitionFk1Runs(rel_->fk1_index, threads_));
      RecordMorselPlan(ctx);
      // S/F morsels are whole FK1 runs: every slot's range is a contiguous
      // span of table-0 rid positions in both scheduling modes, so the
      // plan doubles as the rid-span contract (PipelineContext docs).
      ctx->slot_rid_spans = &ranges_;
    }
    return Status::OK();
  }

  Status BeginPass(PipelineContext* ctx) override {
    FML_RETURN_IF_ERROR(LoadViews());
    ctx->views = &views_;
    return Status::OK();
  }

  using StrategyBase::StrategyBase;

 protected:
  Status LoadViews() {
    for (size_t i = 0; i < rel_->num_joins(); ++i) {
      FML_RETURN_IF_ERROR(views_[i].Load(rel_->attrs[i], pool_));
    }
    return Status::OK();
  }

  std::vector<join::AttributeTableView> views_;
};

/// Transposes `num_rows` assembled rows into the column-strip layout the
/// batch kernels consume — the S/F drivers' counterpart of the M
/// strategy's fused PageCursor::ReadStrips decode. When `y` is non-null it
/// becomes strip column 0 (matching T's layout, where the target is
/// feature column 0) and the x columns shift up by one.
inline void PackRowsToStrips(const double* x, size_t x_stride,
                             const double* y, size_t y_stride,
                             size_t num_rows, size_t d, int64_t start_row,
                             size_t strip_rows, storage::ColumnStrips* out) {
  const size_t y_off = y != nullptr ? 1 : 0;
  out->Shape(strip_rows, num_rows, d + y_off, /*key_cols=*/0, start_row);
  for (size_t r = 0; r < num_rows; ++r) {
    double* strip0 = out->data.data() +
                     (r / strip_rows) * out->num_cols * strip_rows +
                     r % strip_rows;
    if (y_off != 0) strip0[0] = y[r * y_stride];
    const double* row = x + r * x_stride;
    for (size_t j = 0; j < d; ++j) {
      strip0[(y_off + j) * strip_rows] = row[j];
    }
  }
}

/// The inverse of PackRowsToStrips without a target column: writes the
/// strips' rows back row-major into `x` (num_rows x num_cols, dense).
inline void UnpackStripsToRows(const storage::ColumnStrips& in, double* x) {
  const size_t cols = in.num_cols;
  for (size_t s = 0; s < in.num_strips; ++s) {
    const size_t rows = in.RowsInStrip(s);
    double* dst = x + in.StripStart(s) * cols;
    for (size_t r = 0; r < rows; ++r) {
      const double* src = in.Col(s, 0) + r;
      for (size_t j = 0; j < cols; ++j) {
        dst[r * cols + j] = src[j * in.strip_rows];
      }
    }
  }
}

std::unique_ptr<AccessStrategy> MakeMaterialized(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass);
std::unique_ptr<AccessStrategy> MakeStreaming(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass);
std::unique_ptr<AccessStrategy> MakeFactorized(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass);

}  // namespace factorml::core::pipeline::internal

#endif  // FACTORML_CORE_PIPELINE_ACCESS_INTERNAL_H_
