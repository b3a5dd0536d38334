// The M strategy: join once, write T to disk, then drive the model from
// sequential scans of T (full-pass plane, Algorithm 1 of the paper) or
// planned row-range reads of T (mini-batch plane). Page-aligned row-range
// morsels keep every data page owned by exactly one worker.

#include <cstring>
#include <optional>

#include "common/stopwatch.h"
#include "core/pipeline/access_internal.h"
#include "join/batch_plan.h"
#include "join/materialize.h"
#include "storage/table.h"

namespace factorml::core::pipeline::internal {

namespace {

class MaterializedStrategy final : public StrategyBase {
 public:
  using StrategyBase::StrategyBase;

  Algorithm algorithm() const override { return Algorithm::kMaterialized; }

  Status Prepare(PipelineContext* ctx, const std::string& temp_stem) override {
    Stopwatch mat_watch;
    FML_ASSIGN_OR_RETURN(
        storage::Table t,
        join::MaterializeJoin(*rel_, pool_,
                              temp_dir_ + "/m_" + temp_stem + "_T.fml",
                              threads_));
    t_.emplace(std::move(t));
    if (ctx->report != nullptr) {
      ctx->report->materialize_seconds = mat_watch.ElapsedSeconds();
    }
    if (full_pass_) {
      const auto align = static_cast<int64_t>(t_->schema().RowsPerPage());
      BuildWorkers(chunked()
                       ? exec::SplitRowChunks(t_->num_rows(), morsel_rows_,
                                              align)
                       : exec::PartitionRows(t_->num_rows(), threads_, align));
      RecordMorselPlan(ctx);
    }
    return Status::OK();
  }

  Status BeginPass(PipelineContext* ctx) override {
    ctx->views = nullptr;  // T already carries the attribute columns
    return Status::OK();
  }

  Status RunPass(const PipelineContext& ctx, ModelProgram* model,
                 int pass) override {
    const size_t y_off = ctx.rel->has_target ? 1 : 0;
    // One scanner + batch buffer per worker thread, reused across the
    // morsels it executes (the ranges are page-aligned, so whichever
    // worker ends up with a chunk reads the same pages and rows).
    struct Worker {
      std::optional<storage::TableScanner> scan;
      storage::RowBatch batch;
      storage::ColumnStrips strips;
    };
    std::vector<Worker> workers(static_cast<size_t>(pool_workers()));
    FML_RETURN_IF_ERROR(DriveMorsels(
        ctx, [&](exec::Range range, int slot, int w,
                 const exec::Range* next, Status* status) {
          Worker& wk = workers[static_cast<size_t>(w)];
          if (!wk.scan) {
            wk.scan.emplace(&*t_, pools_->Get(w), batch_rows_);
            if (prefetcher() != nullptr) {
              wk.scan->EnablePrefetch(prefetcher(), prefetch_depth_);
            }
          }
          // Overlap the next scheduled chunk's page reads with this
          // chunk's compute (residency-only; see DriveMorsels).
          if (next != nullptr) {
            wk.scan->PrefetchRowRange(next->begin, next->end);
          }
          wk.scan->SetRowRange(range.begin, range.end);
          if (simd_) {
            // Batched decode: the same batches and the same demand page
            // walk, fused straight into column strips (T's feature column
            // 0 is Y, so the strip target column is 0 when present).
            while (wk.scan->NextStrips(kDefaultStripRows, &wk.strips)) {
              if (wk.strips.num_rows == 0) continue;
              DenseBlock block;
              block.start_row = wk.strips.start_row;
              block.num_rows = wk.strips.num_rows;
              block.strips = &wk.strips;
              block.strip_col0 = y_off;
              block.strip_y_col = y_off != 0 ? 0 : -1;
              model->AccumulateDense(pass, slot, block);
            }
            *status = wk.scan->status();
            return;
          }
          while (wk.scan->Next(&wk.batch)) {
            if (wk.batch.num_rows == 0) continue;
            DenseBlock block;
            block.start_row = wk.batch.start_row;
            block.num_rows = wk.batch.num_rows;
            block.x = wk.batch.feats.data() + y_off;
            block.x_stride = wk.batch.feats.cols();
            if (y_off != 0) {
              block.y = wk.batch.feats.data();
              block.y_stride = wk.batch.feats.cols();
            }
            model->AccumulateDense(pass, slot, block);
          }
          *status = wk.scan->status();
        }));
    MergeSlots(model, pass);
    return Status::OK();
  }

  Status RunEpoch(PipelineContext* ctx, ModelProgram* model,
                  int epoch) override {
    const auto order = model->EpochRidOrder(*ctx, epoch);
    const auto plan = join::PlanGroupBatches(ctx->rel->fk1_index, batch_rows_,
                                             order.empty() ? nullptr : &order);
    ctx->views = nullptr;
    FML_RETURN_IF_ERROR(model->BeginEpoch(*ctx, epoch));

    const size_t y_off = ctx->rel->has_target ? 1 : 0;
    const size_t d = ctx->rel->total_dims();
    la::Matrix x;
    std::vector<double> y;
    storage::RowBatch rows;
    storage::ColumnStrips strips;
    for (const auto& batch : plan) {
      const size_t b = static_cast<size_t>(batch.total_rows);
      x.Reshape(b, d);
      y.resize(y_off != 0 ? b : 0);
      size_t filled = 0;
      for (const auto& range : batch.ranges) {
        FML_RETURN_IF_ERROR(t_->ReadRows(ctx->pool, range.start,
                                         static_cast<size_t>(range.count),
                                         &rows));
        for (size_t r = 0; r < rows.num_rows; ++r) {
          // T feature column 0 is Y; the remaining d columns are features.
          if (y_off != 0) y[filled] = rows.feats(r, 0);
          std::memcpy(x.Row(filled).data(), rows.feats.Row(r).data() + y_off,
                      sizeof(double) * d);
          ++filled;
        }
      }
      FML_CHECK_EQ(filled, b);
      DenseBatch dense{&x, &y};
      if (simd_) {
        // Strip-fed epoch plane: transpose the assembled batch (same page
        // walk and IoStats as the row path — the strips are packed from
        // the rows just read, including batches shorter than one strip).
        PhaseScope phase(ctx->report, "pack");
        PackRowsToStrips(x.data(), d, nullptr, 0, b, d, 0, kDefaultStripRows,
                         &strips);
        dense.strips = &strips;
      }
      FML_RETURN_IF_ERROR(model->OnDenseBatch(*ctx, dense));
    }
    return Status::OK();
  }

 private:
  std::optional<storage::Table> t_;
};

}  // namespace

std::unique_ptr<AccessStrategy> MakeMaterialized(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass) {
  return std::make_unique<MaterializedStrategy>(rel, pool, options,
                                                full_pass);
}

}  // namespace factorml::core::pipeline::internal
