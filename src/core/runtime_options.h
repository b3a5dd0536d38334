#ifndef FACTORML_CORE_RUNTIME_OPTIONS_H_
#define FACTORML_CORE_RUNTIME_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "la/kernels.h"

namespace factorml {
class ArgParser;
}

namespace factorml::core {

/// Read-ahead window (in batches) of --prefetch without an explicit
/// --prefetch-depth: classic double buffering.
inline constexpr int kDefaultPrefetchDepth = 2;

/// The runtime knobs of a training run: how rows reach the model (batch
/// size, threads, scheduler, prefetch, shards, kernels, shard backend,
/// checkpoints), never what the model computes. Declared once here; every
/// model family's options struct inherits it and adds only its
/// hyperparameters, and the pipeline's StrategyOptions inherits it too —
/// so a Train* wrapper hands its options to the pipeline by a slicing
/// copy. `threads` may be 0 (= DefaultThreads()) when handed to
/// RunTraining, which resolves it via exec::EffectiveThreads before any
/// strategy sees it — the strategies and the PipelineContext always
/// observe the resolved count (>= 1).
struct RuntimeOptions {
  /// Rows per streamed/scanned batch; the mini-batch size of SGD
  /// families (NnOptions defaults it to 1024).
  size_t batch_rows = 8192;
  /// Where the M strategy materializes T and the process backend puts its
  /// socket and per-worker directories.
  std::string temp_dir = ".";
  /// exec/ workers; 0 = DefaultThreads(), 1 = the exact bit-for-bit
  /// serial path.
  int threads = 0;
  /// Rows per scheduler chunk for the full-pass plane. 0 (default) keeps
  /// the legacy static partition — one morsel per worker, merged in worker
  /// order, the seed-exact reproduction path. > 0 switches to the
  /// chunk-ordered scheduler: the pass is split into fixed,
  /// deterministically numbered chunks (page-aligned rows for M, whole
  /// FK1 runs for S/F), every chunk accumulates into its own slot, and
  /// the reduction merges in chunk order — so for a fixed morsel_rows the
  /// result is bit-identical for ANY thread count and ANY steal schedule.
  int64_t morsel_rows = 0;
  /// Work stealing over the chunked decomposition: idle workers acquire
  /// chunks from other workers' blocks (lock-free, exec::MorselQueue).
  /// Changes who computes each chunk, never what is merged. Implies
  /// chunking (kDefaultMorselRows) when morsel_rows is unset.
  bool steal = false;
  /// Asynchronous double-buffered page prefetch over the unified I/O
  /// cursor plane (storage::PageCursor / Prefetcher): while a worker
  /// computes on one morsel, the pages of its next scheduled morsel and
  /// of the following `prefetch_depth` batches are landed in its buffer
  /// pool by a background I/O crew. Residency-only by construction —
  /// prefetch never changes values, merge order, op counts, or the demand
  /// read sequence, so results are bit-identical at on and off; only the
  /// page-I/O split (IoStats prefetch_reads / prefetch_hits / stall) and
  /// wall time move. Off by default: the seed goldens pin the
  /// demand-path I/O counts.
  bool prefetch = false;
  /// Batches read ahead per worker when prefetch is on (>= 1).
  int prefetch_depth = kDefaultPrefetchDepth;
  /// Rid-range shards of the full-pass plane (see exec::ShardPlan and
  /// core/pipeline/sharded_driver.h). 1 (default) runs unsharded —
  /// byte-identical to the pre-shard engine. N > 1 splits every full pass
  /// into N contiguous chunk spans, runs one scan per shard, round-trips
  /// each shard's accumulator slots through serialized ShardDelta bytes
  /// (the wire seam a distributed backend plugs into), and merges the
  /// deltas in shard-id order. Sharding implies the chunk-ordered
  /// scheduler (kDefaultMorselRows when morsel_rows is unset); at the same
  /// resolved morsel size the objectives, params, op counts — and, at
  /// deterministic schedules (steal and prefetch off), total page I/O —
  /// are bit-identical to shards = 1 for any thread count. Rejected for
  /// mini-batch (SGD) programs, whose sequential epochs have no
  /// order-free merge.
  int shards = 1;
  /// Compute-kernel backend (la/kernels.h). kScalar (default) keeps the
  /// seed's exact loops and row-at-a-time decode — bit-identical to the
  /// goldens. kSimd selects the best runtime-dispatched vector backend
  /// (AVX2/FMA when the CPU has it, portable vector extensions otherwise)
  /// and switches the full-pass dense drivers to the batched column-strip
  /// decode (kDefaultStripRows); the NN epoch plane then runs whole
  /// batches in strip layout. The op counts and the page I/O stream are
  /// identical to scalar by construction — only the floating-point
  /// summation order moves, so objectives and params agree to
  /// reassociation tolerance.
  la::KernelMode kernels = la::KernelMode::kScalar;
  /// Execution backend for shards > 1. "inproc" (default) drives shard
  /// scans in this process via ShardedDriver — byte-identical to the
  /// pre-backend engine. "process" forks one factormld worker per shard
  /// and exchanges ShardDelta bytes over length-prefixed socket frames
  /// (core/pipeline/shard_rpc.h); bit-identical results by the same
  /// chunk-ordered merge.
  std::string shard_backend = "inproc";
  /// Per-worker liveness deadline of the process backend, in
  /// milliseconds: a worker producing no frame within it is declared dead
  /// and its unfinished spans are requeued on a healthy worker.
  int64_t shard_timeout_ms = 30000;
  /// Socket family of the process backend: "unix" (default, a socket
  /// under temp_dir) or "tcp" (127.0.0.1, kernel-assigned port).
  std::string shard_transport = "unix";
  /// Explicit path to the factormld worker binary. Empty (default)
  /// resolves via $FACTORMLD, then a sibling of the running executable,
  /// then $PATH.
  std::string shard_worker_path;
  /// ShardDelta payload encoding. "dense" (default) ships every slot
  /// double verbatim (wire format v1, byte-identical to the pre-knob
  /// engine). "sparse" run-length-encodes zero stretches (v2): with
  /// rid-scoped slots most non-owned state never hits the wire, and what
  /// remains is literal doubles — the decoded stream is bit-identical to
  /// dense, so results never move.
  std::string delta_encoding = "dense";
  /// Checkpoint/restore. Empty (default) disables. Non-empty: after every
  /// `checkpoint_every` completed iterations the coordinator atomically
  /// writes <dir>/<M|S|F>-<model>.ckpt (CRC32 per block, staged .tmp +
  /// rename) plus a JSON sidecar; a fresh run over the same configuration
  /// restores it and resumes at the next iteration, bit-identical to the
  /// uninterrupted run.
  std::string checkpoint_dir;
  /// Iterations between checkpoint writes; 0 = every iteration when
  /// checkpoint_dir is set.
  int64_t checkpoint_every = 0;

  /// InvalidArgument, naming the CLI flag, for a knob no run can use:
  /// batch_rows < 1, an unknown shard_backend or delta_encoding, a
  /// negative checkpoint_every, or checkpoint_every without
  /// checkpoint_dir. RunTraining calls it once, before anything runs.
  Status Validate() const;
};

/// The runtime flags of a `train-*` command: --batch (default
/// `default_batch_rows`, the family's own), --threads, --morsel-rows,
/// --steal, --prefetch, --prefetch-depth, --shards, --kernels,
/// --shard-backend, --shard-timeout-ms, --shard-transport, --factormld,
/// --delta-encoding, --checkpoint-dir and --checkpoint-every, with
/// temp_dir set to --dir. Malformed values exit(2) in the shared
/// ArgParser getters; a negative --batch reads as 0, which Validate()
/// rejects.
RuntimeOptions RuntimeOptionsFromFlags(const ArgParser& args,
                                       size_t default_batch_rows);

}  // namespace factorml::core

#endif  // FACTORML_CORE_RUNTIME_OPTIONS_H_
