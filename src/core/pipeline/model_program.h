#ifndef FACTORML_CORE_PIPELINE_MODEL_PROGRAM_H_
#define FACTORML_CORE_PIPELINE_MODEL_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "core/algorithm.h"
#include "core/report.h"
#include "exec/parallel_for.h"
#include "join/attribute_view.h"
#include "join/join_cursor.h"
#include "join/normalized_relations.h"
#include "la/matrix.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace factorml::core::pipeline {

/// What a ModelProgram can consume and how it wants to be driven. The
/// paper's M/S/F strategies are orthogonal to the model; the mask tells the
/// pipeline which planes the model implements so a strategy can be matched
/// (or rejected) up front.
enum Capability : uint32_t {
  /// Iterations are model-defined full passes over all joined rows
  /// (EM-style: GMM, k-means, closed-form linear regression).
  kFullPass = 1u << 0,
  /// Iterations are epochs of sequential mini-batches of whole FK1-rid
  /// groups (SGD-style: NN).
  kMiniBatch = 1u << 1,
  /// Implements the factorized hooks (AccumulateFactorized /
  /// OnFactorizedBatch); without it the F strategy is rejected.
  kFactorized = 1u << 2,
  /// Requires rel.has_target (Y carried as S feature column 0).
  kNeedsTarget = 1u << 3,
};

/// The InvalidArgument a ValidateOptions hook returns for a hyperparameter
/// outside its range, naming the option and its CLI flag (nullptr when the
/// CLI has none): "<family>: <field> (--<flag>) must be <rule>, got <value>".
Status InvalidOption(const char* family, const char* field, const char* flag,
                     const char* rule, double value);

/// Everything a training run shares between the access strategy and the
/// model program. `views` is non-null only while the S/F strategies have
/// the attribute tables resident (between BeginPass/BeginEpoch and the end
/// of the pass/epoch); the M strategy never exposes views — the joined
/// rows it delivers already contain the attribute columns.
struct PipelineContext {
  const join::NormalizedRelations* rel = nullptr;
  storage::BufferPool* pool = nullptr;
  TrainReport* report = nullptr;
  int threads = 1;  // effective exec/ worker count
  Algorithm algorithm = Algorithm::kMaterialized;
  const std::vector<join::AttributeTableView>* views = nullptr;
  /// The rid-span contract of the full-pass accumulator plane: when
  /// non-null, entry `slot` is the contiguous half-open range of TABLE-0
  /// rid positions every row delivered to that slot's Accumulate calls
  /// falls in — the S/F strategies publish their morsel plan here (chunked
  /// mode: slot = chunk; legacy mode: slot = worker's static range).
  /// Models with per-rid slot state size it to the span instead of the
  /// whole attribute table (O(sum of spans) = O(n_R) total instead of
  /// O(slots x n_R)), and keep span-relative indexing a pure function of
  /// the BeginPass-time plan so VisitSlotState round-trips stay exact.
  /// Null for the M strategy (its morsels are fact rows, and it is never
  /// factorized) and on the mini-batch plane. Tables i >= 1 of a
  /// multi-way join are NOT covered — their rids are unordered within a
  /// chunk, so per-rid state for them stays full-domain.
  const std::vector<exec::Range>* slot_rid_spans = nullptr;

  bool factorized() const { return algorithm == Algorithm::kFactorized; }
};

/// The table-0 rid span accumulator slot `slot` observes, under the
/// contract above: the published span, the full domain [0, full_domain)
/// when no plan is published, or an empty span for a slot past the plan
/// (possible only for plans with zero chunks).
inline exec::Range SlotRidSpan(const PipelineContext& ctx, int slot,
                               int64_t full_domain) {
  if (ctx.slot_rid_spans == nullptr || ctx.slot_rid_spans->empty()) {
    return exec::Range{0, full_domain};
  }
  const auto s = static_cast<size_t>(slot);
  if (s >= ctx.slot_rid_spans->size()) return exec::Range{0, 0};
  return (*ctx.slot_rid_spans)[s];
}

/// A block of fully joined rows as the M/S strategies deliver them: row r's
/// features (target removed) start at `x + r * x_stride`, its target at
/// `y + r * y_stride` (y is null when the relations carry no target). The
/// strides let the M strategy point straight into the scanned page batch
/// while the S strategy points into its assembly buffer — no copy either
/// way.
struct DenseBlock {
  int64_t start_row = 0;  // global fact-row id of row 0
  size_t num_rows = 0;
  const double* x = nullptr;
  size_t x_stride = 0;
  const double* y = nullptr;
  size_t y_stride = 0;

  /// Batched-decode form (--kernels=simd): the same rows as column-major
  /// strips (storage::ColumnStrips). Null on the row-at-a-time path. When
  /// set, feature column j of the model lives at strip column
  /// `strip_col0 + j` and the target (if any) at column `strip_y_col`;
  /// the row pointers above may be null (the M strategy's fused decode
  /// never assembles rows), so strip-aware models must take this path.
  const storage::ColumnStrips* strips = nullptr;
  size_t strip_col0 = 0;
  int strip_y_col = -1;

  const double* X(size_t r) const { return x + r * x_stride; }
  double Y(size_t r) const { return y[r * y_stride]; }
  /// Strip-path accessors: feature column j / the target column of one
  /// strip, as contiguous runs of strips->RowsInStrip(s) doubles.
  const double* StripX(size_t s, size_t j) const {
    return strips->Col(s, strip_col0 + j);
  }
  const double* StripY(size_t s) const {
    return strips->Col(s, static_cast<size_t>(strip_y_col));
  }
};

/// A block of *normalized* rows as the F strategy delivers them: the S
/// slice plus foreign keys of every row (`s_rows`), with the rows grouped
/// by their R1 rid (`groups`) so per-attribute-tuple work can be reused.
/// Attribute features are reached through PipelineContext::views.
struct FactorizedBlock {
  const storage::RowBatch* s_rows = nullptr;
  const std::vector<join::JoinGroup>* groups = nullptr;
  /// Batched form of s_rows' features (--kernels=simd): the S-slice
  /// columns as column-major strips, transposed from s_rows by the F
  /// driver. Null on the row-at-a-time path. Models that can consume
  /// S-slice work in bulk (k-means' distance blocks) use it; the
  /// group-structured attribute work stays row/group-at-a-time.
  const storage::ColumnStrips* s_strips = nullptr;
};

/// One assembled mini-batch for the kMiniBatch plane: x is (batch x d)
/// with the target split into y.
struct DenseBatch {
  const la::Matrix* x = nullptr;
  const std::vector<double>* y = nullptr;
  /// Batched form of x (--kernels=simd): the same sampled rows transposed
  /// into column-major strips (feature column j is strip column j; the
  /// target stays in y). Null on the row-at-a-time path. The driver packs
  /// the strips from the already-assembled batch, so IoStats are identical
  /// to the row path by construction.
  const storage::ColumnStrips* strips = nullptr;
};

/// The model plane of the training pipeline. A ModelProgram owns the model
/// parameters and the per-pass math; it never touches storage, joins,
/// partitioning, or threads — the AccessStrategy (data-access plane) owns
/// those and calls back into the hooks below. Adding a new model family is
/// one subclass; it gets all three execution strategies (M/S/F) and the
/// exec/ parallel runtime for free.
///
/// Full-pass driving sequence (kFullPass), per iteration i:
///   for pass p in 0..NumPasses(i):
///     strategy reloads per-pass inputs (S/F: attribute views)
///     BeginPass(ctx, i, p, workers)          — build caches, zero accums
///     workers each call Accumulate{Dense,Factorized}(p, w, block)  — hot
///     MergeWorker(p, w) for w in worker order — deterministic reduction
///       (--shards > 1: the slots are first round-tripped through
///       ShardDelta bytes via VisitSlotState, then merged in the same
///       global chunk order — see core/pipeline/sharded_driver.h)
///     EndPass(ctx, i, p)                      — apply pass result
///   EndIteration(ctx, i) -> stop?
///
/// Mini-batch driving sequence (kMiniBatch), per epoch e:
///   strategy reloads inputs and orders rids by EpochRidOrder(e)
///   BeginEpoch(ctx, e)
///   On{Dense,Factorized}Batch(ctx, batch) for each planned batch
///   EndIteration(ctx, e) -> stop?
class ModelProgram {
 public:
  virtual ~ModelProgram() = default;

  /// Report tag suffix: the run is labeled "<M|S|F>-<Name()>".
  virtual const char* Name() const = 0;
  /// File stem for the M strategy's materialized join (the only strategy
  /// that materializes): <temp_dir>/m_<TempStem()>_T.fml.
  virtual const char* TempStem() const = 0;
  virtual uint32_t Capabilities() const = 0;
  /// Hyperparameter/shape checks run before any measurement starts (the
  /// runtime knobs are RuntimeOptions::Validate's); see InvalidOption.
  virtual Status ValidateOptions(const join::NormalizedRelations& rel) const {
    (void)rel;
    return Status::OK();
  }
  /// Iteration budget: EM iterations or SGD epochs.
  virtual int MaxIterations() const = 0;
  /// Allocate parameters and per-run state. Runs after the strategy's
  /// Prepare (so the M strategy has already materialized T).
  virtual Status Init(const PipelineContext& ctx) = 0;

  // ---------------------------------------------------- full-pass plane
  virtual int NumPasses(int iter) const {
    (void)iter;
    return 1;
  }
  virtual const char* PassName(int pass) const {
    (void)pass;
    return "pass";
  }
  virtual Status BeginPass(const PipelineContext& ctx, int iter, int pass,
                           int workers) {
    (void)ctx, (void)iter, (void)pass, (void)workers;
    return Status::OK();
  }
  virtual void AccumulateDense(int pass, int worker, const DenseBlock& block) {
    (void)pass, (void)worker, (void)block;
    FML_CHECK(false) << Name() << ": dense full-pass hook not implemented";
  }
  virtual void AccumulateFactorized(int pass, int worker,
                                    const FactorizedBlock& block) {
    (void)pass, (void)worker, (void)block;
    FML_CHECK(false) << Name() << ": factorized full-pass hook not implemented";
  }
  virtual void MergeWorker(int pass, int worker) { (void)pass, (void)worker; }

  /// The shard plane's wire seam, extending MergeWorker to a serializable
  /// ShardDelta: visits every double of one accumulator slot's post-scan
  /// state as a sequence of contiguous spans. The ShardedDriver serializes
  /// a shard's slots by copying the visited doubles out (then zeroing
  /// them) and re-applies a received delta by copying them back in, so the
  /// visit sequence for a given (pass, slot) must be identical between the
  /// two visits — make it a pure function of the BeginPass-time shapes.
  /// Visit merged *state* only, never scratch buffers; per-rid state that
  /// stays resident with the rid's shard (e.g. GMM responsibilities) is
  /// shard-local by construction and must not be visited. Full-pass
  /// programs must implement this to train under --shards > 1; mini-batch
  /// programs never reach it (RunTraining rejects sharding for them).
  virtual void VisitSlotState(
      int pass, int slot,
      const std::function<void(double* data, size_t len)>& visit) {
    (void)pass, (void)slot, (void)visit;
    FML_CHECK(false) << Name()
                     << ": shard-plane slot-state visitor not implemented";
  }

  virtual Status EndPass(const PipelineContext& ctx, int iter, int pass) {
    (void)ctx, (void)iter, (void)pass;
    return Status::OK();
  }

  /// The checkpoint seam (core/pipeline/checkpoint.h): visits every double
  /// of the model's cross-iteration state — parameters, convergence
  /// scalars, and any generator cursors encoded as bit patterns — at an
  /// iteration boundary (after EndIteration, before the next BeginPass /
  /// BeginEpoch). Like VisitSlotState this one visitor serves both
  /// directions (save copies the doubles out, restore copies them back
  /// in), so the visit sequence must be a pure function of the Init-time
  /// shapes. Per-pass accumulators are rebuilt by the next BeginPass and
  /// must not be visited. Required for --checkpoint-dir; every in-tree
  /// family implements it.
  virtual void VisitIterationState(
      const std::function<void(double* data, size_t len)>& visit) {
    (void)visit;
    FML_CHECK(false) << Name()
                     << ": iteration-state visitor not implemented";
  }

  /// Whether a lost shard span of `pass` can be recovered by a bare
  /// rescan on a surviving worker: true when re-running RunPass over the
  /// lost chunks — with no BeginPass replay — reproduces the lost slot
  /// state bit-exactly. That holds by default (accumulate hooks read only
  /// parameters fixed at BeginPass), but a program whose EARLIER EndPass
  /// in the same iteration already mutated parameters that this pass's
  /// sibling passes read (GMM: EndPass(mean) rewrites mu before the cov
  /// pass) must return false for the affected passes; the process shard
  /// backend then falls back to a deterministic full-run restart instead
  /// of a mid-iteration rescan.
  virtual bool ShardRecoverableAtPass(int pass) const {
    (void)pass;
    return true;
  }

  // --------------------------------------------------- mini-batch plane
  /// R1-rid visit order for this epoch (the paper's per-epoch key
  /// permutation for SGD); empty = natural order.
  virtual std::vector<int64_t> EpochRidOrder(const PipelineContext& ctx,
                                             int epoch) {
    (void)ctx, (void)epoch;
    return {};
  }
  virtual Status BeginEpoch(const PipelineContext& ctx, int epoch) {
    (void)ctx, (void)epoch;
    return Status::OK();
  }
  virtual Status OnDenseBatch(const PipelineContext& ctx,
                              const DenseBatch& batch) {
    (void)ctx, (void)batch;
    FML_CHECK(false) << Name() << ": dense mini-batch hook not implemented";
    return Status::OK();
  }
  virtual Status OnFactorizedBatch(const PipelineContext& ctx,
                                   const FactorizedBlock& batch) {
    (void)ctx, (void)batch;
    FML_CHECK(false) << Name()
                     << ": factorized mini-batch hook not implemented";
    return Status::OK();
  }

  // ------------------------------------------------------------ epilogue
  /// Apply the iteration's result; true = converged, stop early.
  virtual Result<bool> EndIteration(const PipelineContext& ctx, int iter) = 0;
  /// Final objective for the TrainReport (log-likelihood, MSE, inertia...).
  virtual double Objective() const = 0;
};

}  // namespace factorml::core::pipeline

#endif  // FACTORML_CORE_PIPELINE_MODEL_PROGRAM_H_
