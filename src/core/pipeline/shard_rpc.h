#ifndef FACTORML_CORE_PIPELINE_SHARD_RPC_H_
#define FACTORML_CORE_PIPELINE_SHARD_RPC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/pipeline/sharded_driver.h"
#include "net/socket.h"

namespace factorml::core::pipeline {

/// The process shard backend (--shard-backend=process): one factormld
/// worker process per shard, driven over length-prefixed socket frames
/// (net/frame.h) on a Unix-domain or TCP-loopback connection.
///
/// Protocol — a lockstep-replica design. Every node (the coordinating
/// parent and each worker) opens its own views of the on-disk tables,
/// runs the full deterministic training loop, and holds a complete model
/// replica; only the *scans* are partitioned. Per full pass:
///
///   parent:  PASS{spans}  ->  each worker scans its spans and answers
///   worker:  DELTA{ShardDelta bytes + per-shard io/op windows}
///   parent:  collects all deltas (requeueing a dead worker's spans on a
///            healthy one), then APPLY{all deltas in shard-id order}
///   every node applies every delta and replays MergeWorker in global
///   chunk order — the exact reduction of the unsharded run — so model
///   state stays bit-identical on all nodes, and EndPass/EndIteration/
///   convergence are computed locally and agree everywhere.
///
/// At the end each worker reports DONE{objective}; the parent verifies
/// the objectives agree bitwise with its own and sends BYE.
///
/// Failure semantics: a worker death (socket EOF) or hang (no frame
/// within --shard-timeout-ms; the worker is then SIGKILLed) loses only
/// the spans whose DELTAs were not yet received. If the current pass is
/// recoverable (ModelProgram::ShardRecoverableAtPass), the lost spans are
/// requeued on the live worker owning the fewest spans with a
/// recover_passes prologue — the new owner rescans the earlier passes of
/// the iteration over just those spans (slot state extracted and
/// discarded) to rebuild per-row state, then scans the real pass; the
/// requeued DELTA is bit-identical to what the dead worker would have
/// sent. Otherwise the parent broadcasts RESTART and the whole training
/// reruns deterministically on the surviving workers (dead workers stay
/// dead; ownership is sticky). The run fails only when no worker
/// survives or the restart budget is exhausted.
inline constexpr uint32_t kShardProtocolVersion = 1;

enum ShardFrameType : uint32_t {
  kFrameHello = 1,  // worker -> parent: version, worker id, pid
  kFrameJob,        // parent -> worker: dataset paths + resolved options
  kFramePass,       // parent -> worker: scan these spans (maybe recover)
  kFrameDelta,      // worker -> parent: one shard's ShardDelta + windows
  kFrameApply,      // parent -> worker: all deltas, shard-id order
  kFrameRestart,    // parent -> worker: abandon attempt, rerun training
  kFrameDone,       // worker -> parent: converged; objective, iterations
  kFrameBye,        // parent -> worker: shut down cleanly
  kFrameError,      // worker -> parent: fatal error message
};

/// Everything a worker needs to replicate the parent's training run: the
/// resolved runtime knobs (threads >= 1, morsel_rows > 0; temp_dir is the
/// worker's private subdirectory), the on-disk dataset, and the model
/// family's own options (an opaque family blob decoded by the family's
/// DecodeShardJob). Carried once in the JOB frame; encoder and decoder
/// ship together — coordinator and workers are the same binary build.
struct ShardJobSpec : RuntimeOptions {
  uint32_t version = kShardProtocolVersion;
  std::string s_path;
  std::vector<std::string> attr_paths;
  bool has_target = false;
  uint64_t pool_pages = 0;     // worker buffer-pool capacity (= parent's)
  char algorithm = 'm';        // AlgorithmPrefix char: m / s / f
  int64_t worker_id = 0;
  std::string family;          // "gmm" / "linreg" / "kmeans" / "logreg"
  std::string family_blob;     // family EncodeShardJob output
};

std::string EncodeShardJobSpec(const ShardJobSpec& spec);
Result<ShardJobSpec> DecodeShardJobSpec(const std::string& bytes);

/// The sentinel a ShardPassDriver returns when the current attempt must
/// be abandoned and training rerun from scratch (non-recoverable worker
/// death): a kAborted status, the only producer of that code. RunTraining's
/// retry loop catches it on the parent; factormld catches it on workers and
/// reruns with a fresh program.
Status ShardRestartStatus(uint32_t next_attempt);
bool IsShardRestart(const Status& status);

/// A worker process's connection back to its coordinator, threaded into
/// RunTraining via StrategyOptions::shard_channel. Owns nothing; the
/// FrameConn lives in factormld's main.
class ShardWorkerLink {
 public:
  ShardWorkerLink(net::FrameConn* conn, int64_t worker_id)
      : conn_(conn), worker_id_(worker_id) {}

  net::FrameConn* conn() { return conn_; }
  int64_t worker_id() const { return worker_id_; }
  /// Current attempt number; bumped when a RESTART frame arrives so the
  /// next RunTraining round sends/accepts frames of the new attempt.
  uint32_t attempt() const { return attempt_; }
  void set_attempt(uint32_t a) { attempt_ = a; }

 private:
  net::FrameConn* conn_;
  int64_t worker_id_ = 0;
  uint32_t attempt_ = 0;
};

/// Worker-side ShardPassDriver: instead of owning the shard schedule, it
/// follows the coordinator's PASS frames — scans the assigned spans
/// through the strategy's armed shard plane, ships each span's ShardDelta
/// (with its io/op windows), then applies the broadcast APPLY exactly as
/// the parent does. Its local shard plan is its own PlanShards over the
/// identical morsel plan, verified span-by-span against every PASS frame.
class ShardWorkerDriver : public ShardPassDriver,
                          public ShardScanObserver {
 public:
  explicit ShardWorkerDriver(ShardWorkerLink* link) : link_(link) {}

  Status Init(AccessStrategy* strategy, const StrategyOptions& options,
              TrainReport* report) override;
  Status RunPass(AccessStrategy* strategy, const PipelineContext& ctx,
                 ModelProgram* model, int pass) override;
  /// Sends DONE{objective, iterations} and waits for BYE (EOF counts as
  /// a shutdown too). A RESTART here propagates as the restart sentinel.
  Status Finish(ModelProgram* model, TrainReport* report) override;
  const exec::ShardPlan& plan() const override { return plan_; }

  /// ShardScanObserver over the currently armed (local) sub-plan.
  Status OnShardScanned(int local_shard) override;

 private:
  struct AssignedSpan {
    int64_t shard = 0;  // global shard id
    exec::Range chunks{0, 0};
  };
  struct PassCmd {
    uint32_t attempt = 0;
    uint64_t pass_seq = 0;
    int64_t pass = 0;
    uint32_t recover_passes = 0;
    std::vector<AssignedSpan> spans;
  };
  Status DecodePass(const std::string& payload, PassCmd* cmd);
  Status RunAssigned(AccessStrategy* strategy, const PipelineContext& ctx,
                     ModelProgram* model, int pass, const PassCmd& cmd);
  void MaybeInjectFault(uint64_t pass_seq);

  ShardWorkerLink* link_;
  bool sparse_deltas_ = false;
  exec::ShardPlan plan_;        // full global plan (all shards)
  exec::ShardPlan scan_plan_;   // the sub-plan currently armed
  std::vector<int64_t> scan_shards_;  // global shard id per local index
  bool discard_scan_ = false;   // recovery prologue: extract and drop
  uint64_t next_seq_ = 0;
  TrainReport* report_ = nullptr;
  ModelProgram* model_ = nullptr;
  int pass_ = 0;
  // Per-scanned-span results of the armed RunPass, keyed by local index.
  struct SpanResult {
    int64_t shard = 0;
    ShardDelta delta;
    double scan_seconds = 0.0;
    storage::IoStats io;
    OpCounters ops;
  };
  std::vector<SpanResult> results_;
  storage::IoStats io_mark_;
  OpCounters ops_mark_;
  Stopwatch scan_watch_;
};

/// Parent-side ShardPassDriver: spawns one factormld per shard, feeds
/// every pass over the sockets, folds the returned op windows into this
/// process's counters (op-count parity with the in-process backend) and
/// the io windows into TrainReport::shard_stats (per-node I/O), applies
/// and merges the deltas locally in global chunk order, and broadcasts
/// APPLY so the replicas stay bit-identical. Survives worker deaths as
/// described above. Workers are spawned once and reused across restart
/// attempts; dead workers are never respawned.
class ProcessShardCoordinator : public ShardPassDriver {
 public:
  ProcessShardCoordinator(const StrategyOptions& options, Algorithm algorithm,
                          const join::NormalizedRelations* rel,
                          storage::BufferPool* pool);
  ~ProcessShardCoordinator() override;

  Status Init(AccessStrategy* strategy, const StrategyOptions& options,
              TrainReport* report) override;
  Status RunPass(AccessStrategy* strategy, const PipelineContext& ctx,
                 ModelProgram* model, int pass) override;
  Status Finish(ModelProgram* model, TrainReport* report) override;
  const exec::ShardPlan& plan() const override { return plan_; }

  uint32_t attempt() const { return attempt_; }
  int live_workers() const;

 private:
  struct Worker {
    int64_t id = 0;
    pid_t pid = -1;
    net::FrameConn conn;
    bool alive = false;
    int64_t deadline_ms = 0;  // steady-clock ms; refreshed on every frame
  };
  Status SpawnWorkers(int shards);
  Status SendJob(Worker* w);
  Status SendPassFrame(Worker* w, uint64_t seq, int pass,
                       const std::vector<int>& shards,
                       uint32_t recover_passes);
  /// Marks `w` dead (SIGKILL if still running, waitpid, close). Returns
  /// the shards it owned.
  void MarkDead(Worker* w, const char* reason);
  /// Reassigns every dead-owned shard to the live worker with the fewest
  /// owned shards (lowest id tie-break). Returns the reassigned shards
  /// grouped by new owner.
  std::vector<std::pair<int, std::vector<int>>> ReassignDeadOwners();
  Status InitiateRestart();

  StrategyOptions options_;
  Algorithm algorithm_;
  const join::NormalizedRelations* rel_;
  storage::BufferPool* pool_;

  exec::ShardPlan plan_;
  TrainReport* report_ = nullptr;
  bool spawned_ = false;
  net::Listener listener_;
  std::vector<Worker> workers_;
  std::vector<int> shard_owner_;  // shard id -> index into workers_
  uint32_t attempt_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace factorml::core::pipeline

#endif  // FACTORML_CORE_PIPELINE_SHARD_RPC_H_
