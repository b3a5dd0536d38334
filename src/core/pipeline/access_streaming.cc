// The S strategy: recompute the join on the fly every pass/epoch — reload
// the attribute tables (build side), stream S (probe side) and assemble
// each joined tuple into a full d-vector before it enters the model
// (Fig. 1(b) of the paper). Morsels are whole FK1 runs so each worker's
// scan of S stays a sequential range read.

#include <optional>

#include "core/pipeline/access_internal.h"
#include "join/assemble.h"
#include "join/join_cursor.h"

namespace factorml::core::pipeline::internal {

namespace {

class StreamingStrategy final : public JoinStreamStrategyBase {
 public:
  using JoinStreamStrategyBase::JoinStreamStrategyBase;

  Algorithm algorithm() const override { return Algorithm::kStreaming; }

  Status RunPass(const PipelineContext& ctx, ModelProgram* model,
                 int pass) override {
    const size_t y_off = ctx.rel->has_target ? 1 : 0;
    const size_t d = ctx.rel->total_dims();
    // One join cursor + assembly buffer per worker thread, reused across
    // the FK1-run morsels it executes.
    struct Worker {
      std::optional<join::JoinCursor> cursor;
      join::JoinBatch batch;
      la::Matrix xbuf;
      std::vector<double> ybuf;
      storage::ColumnStrips strips;
    };
    std::vector<Worker> workers(static_cast<size_t>(pool_workers()));
    FML_RETURN_IF_ERROR(DriveMorsels(
        ctx, [&](exec::Range range, int slot, int w,
                 const exec::Range* next, Status* status) {
          Worker& wk = workers[static_cast<size_t>(w)];
          if (!wk.cursor) {
            wk.cursor.emplace(ctx.rel, pools_->Get(w), batch_rows_);
            if (prefetcher() != nullptr) {
              wk.cursor->EnablePrefetch(prefetcher(), prefetch_depth_);
            }
          }
          // Overlap the next scheduled chunk's S-run reads with this
          // chunk's compute (residency-only; see DriveMorsels).
          if (next != nullptr) {
            wk.cursor->PrefetchPositionRange(next->begin, next->end);
          }
          wk.cursor->SetPositionRange(range.begin, range.end);
          while (wk.cursor->Next(&wk.batch)) {
            const size_t b = wk.batch.s_rows.num_rows;
            if (b == 0) continue;
            wk.xbuf.Reshape(b, d);
            if (y_off != 0) wk.ybuf.resize(b);
            for (size_t r = 0; r < b; ++r) {
              if (y_off != 0) wk.ybuf[r] = wk.batch.s_rows.feats(r, 0);
              join::AssembleJoinedRow(*ctx.rel, wk.batch.s_rows, r, views_,
                                      wk.xbuf.Row(r).data());
            }
            DenseBlock block;
            block.start_row = wk.batch.s_rows.start_row;
            block.num_rows = b;
            block.x = wk.xbuf.data();
            block.x_stride = d;
            if (y_off != 0) {
              block.y = wk.ybuf.data();
              block.y_stride = 1;
            }
            if (simd_) {
              // Batched path: transpose the assembled rows into column
              // strips (target at strip column 0, like T's layout).
              PackRowsToStrips(wk.xbuf.data(), d,
                               y_off != 0 ? wk.ybuf.data() : nullptr, 1, b,
                               d, block.start_row, kDefaultStripRows,
                               &wk.strips);
              block.strips = &wk.strips;
              block.strip_col0 = y_off;
              block.strip_y_col = y_off != 0 ? 0 : -1;
            }
            model->AccumulateDense(pass, slot, block);
          }
          *status = wk.cursor->status();
        }));
    MergeSlots(model, pass);
    return Status::OK();
  }

  Status RunEpoch(PipelineContext* ctx, ModelProgram* model,
                  int epoch) override {
    FML_RETURN_IF_ERROR(LoadViews());
    ctx->views = &views_;
    join::JoinCursor cursor(ctx->rel, pool_, batch_rows_);
    auto order = model->EpochRidOrder(*ctx, epoch);
    if (!order.empty()) cursor.SetRidOrder(std::move(order));
    FML_RETURN_IF_ERROR(model->BeginEpoch(*ctx, epoch));

    const size_t y_off = ctx->rel->has_target ? 1 : 0;
    const size_t d = ctx->rel->total_dims();
    la::Matrix x;
    std::vector<double> y;
    storage::ColumnStrips strips;
    join::JoinBatch batch;
    while (cursor.Next(&batch)) {
      const size_t b = batch.s_rows.num_rows;
      if (b == 0) continue;
      x.Reshape(b, d);
      y.resize(y_off != 0 ? b : 0);
      {
        // On-the-fly join: assemble the full joined tuples, row-parallel
        // (pure data movement against shared read-only views).
        PhaseScope phase(ctx->report, "assemble");
        exec::ParallelFor(
            ctx->threads, static_cast<int64_t>(b), /*align=*/1,
            [&](exec::Range rg, int) {
              for (int64_t r = rg.begin; r < rg.end; ++r) {
                if (y_off != 0) {
                  y[static_cast<size_t>(r)] =
                      batch.s_rows.feats(static_cast<size_t>(r), 0);
                }
                join::AssembleJoinedRow(*ctx->rel, batch.s_rows,
                                        static_cast<size_t>(r), views_,
                                        x.Row(static_cast<size_t>(r)).data());
              }
            });
      }
      DenseBatch dense{&x, &y};
      if (simd_) {
        // Strip-fed epoch plane: pack the assembled batch into strips
        // (short batches included — the pack handles any row count), so
        // the model's epoch math runs as batch matrix products.
        PhaseScope phase(ctx->report, "pack");
        PackRowsToStrips(x.data(), d, nullptr, 0, b, d, 0, kDefaultStripRows,
                         &strips);
        dense.strips = &strips;
      }
      FML_RETURN_IF_ERROR(model->OnDenseBatch(*ctx, dense));
    }
    return cursor.status();
  }
};

}  // namespace

std::unique_ptr<AccessStrategy> MakeStreaming(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass) {
  return std::make_unique<StreamingStrategy>(rel, pool, options,
                                             full_pass);
}

}  // namespace factorml::core::pipeline::internal
