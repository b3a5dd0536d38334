#ifndef FACTORML_COMMON_FLAGS_H_
#define FACTORML_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace factorml {

/// Minimal `--key=value` command-line parser for the benchmark and example
/// binaries. Unknown flags are kept and can be listed; positional arguments
/// are ignored. Not a general-purpose flags library.
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  bool Has(const std::string& key) const;

  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

  /// Comma-separated list of integers, e.g. `--rr=50,100,500`.
  std::vector<int64_t> GetIntList(
      const std::string& key, const std::vector<int64_t>& default_value) const;

  /// The shared `--threads` flag: worker count for the exec/ parallel
  /// runtime. Default 1 — the exact serial reproduction. Values < 1 are
  /// rejected with an error and exit(2); this is the single validation
  /// point for every binary (CLI, benches, examples).
  int GetThreads(int default_value = 1) const;

  /// The shared `--morsel-rows=N` flag: rows per scheduler chunk of the
  /// full-pass plane. 0 (default) keeps the static per-worker partition;
  /// N > 0 enables the chunk-ordered work scheduler, whose results depend
  /// on N but not on --threads or --steal. Values < 0 or non-integers are
  /// rejected with an error and exit(2).
  int64_t GetMorselRows(int64_t default_value = 0) const;

  /// The shared `--steal={on,off}` flag: work stealing over the chunked
  /// decomposition (implies chunking with the default morsel size when
  /// --morsel-rows is unset). Anything other than on/off exits(2).
  bool GetSteal(bool default_value = false) const;

  /// The shared `--shards=N` flag: rid-range shards of the full-pass
  /// plane. 1 (default) runs unsharded — byte-identical to the pre-shard
  /// engine. N > 1 splits every full pass into N contiguous chunk spans
  /// driven through the in-process shard backend (one scan + one
  /// serialized ShardDelta per shard, merged in shard-id order); implies
  /// the chunk-ordered scheduler, and results are bit-identical to
  /// --shards=1 at the same resolved --morsel-rows. Values < 1 or
  /// non-integers are rejected with an error and exit(2).
  int GetShards(int default_value = 1) const;

  /// The shared `--prefetch={on,off}` flag: asynchronous double-buffered
  /// page prefetch over the unified I/O cursor plane. Residency-only —
  /// results are bit-identical either way; off (the default) keeps the
  /// demand-path page-I/O counts byte-identical to the seed goldens.
  /// Anything other than on/off exits(2).
  bool GetPrefetch(bool default_value = false) const;

  /// The shared `--prefetch-depth=N` flag: batches read ahead per worker
  /// when prefetch is on (default 2, classic double buffering). Values
  /// < 1 or non-integers are rejected with an error and exit(2).
  int GetPrefetchDepth(int default_value = 2) const;

  /// The shared `--kernels={scalar,simd}` flag: compute-kernel backend of
  /// the la/ kernel plane. scalar (the default) is bit-identical to the
  /// seed goldens; simd selects the best runtime-dispatched vector backend
  /// (AVX2/FMA, NEON, or portable vector extensions) plus the batched
  /// column-strip decode path — same op counts and page I/O, numerics
  /// equal to scalar within reassociation tolerance. Anything else
  /// exits(2), listing the choices (like --steal/--prefetch).
  std::string GetKernels(const std::string& default_value = "scalar") const;

  /// The shared `--buffer-pages=N` flag: buffer-pool capacity in pages.
  /// Values < 1 or non-integers are rejected with an error and exit(2);
  /// this is the single validation point for every binary, like --threads.
  int64_t GetBufferPages(int64_t default_value) const;

  /// The shared `--trace=PATH` flag: span-trace output path for the obs/
  /// tracer (Chrome trace-event JSON, loadable in Perfetto). Empty
  /// (default) leaves tracing off — the guards compile to a branch on a
  /// cold flag. An unwritable path is rejected with an error and exit(2)
  /// up front, not after the traced run has burned its wall time.
  std::string GetTracePath(const std::string& default_value = "") const;

  /// The shared `--shard-backend={inproc,process}` flag: execution backend
  /// for `--shards=N`. inproc (the default) drives shard scans in the
  /// calling process — byte-identical to the pre-backend engine. process
  /// forks one `factormld` worker per shard and exchanges serialized
  /// ShardDeltas over length-prefixed socket frames; results are
  /// bit-identical to inproc at the same shard/morsel geometry. Anything
  /// else exits(2) listing the choices.
  std::string GetShardBackend(const std::string& default_value = "inproc") const;

  /// The shared `--shard-timeout-ms=N` flag: per-worker liveness deadline
  /// of the process shard backend (default 30000). A worker that produces
  /// no frame within the deadline is declared dead; its unfinished spans
  /// are requeued on a healthy worker with bit-identical results. Values
  /// < 1 or non-integers are rejected with an error and exit(2).
  int64_t GetShardTimeoutMs(int64_t default_value = 30000) const;

  /// The shared `--shard-transport={unix,tcp}` flag: socket family of the
  /// process shard backend. unix (the default) uses a Unix-domain socket
  /// under the run's temp dir; tcp uses 127.0.0.1 with a kernel-assigned
  /// port. Identical wire format and results. Anything else exits(2).
  std::string GetShardTransport(const std::string& default_value = "unix") const;

  /// The shared `--trace-buffer-kb=N` flag: per-thread trace ring capacity
  /// in KiB (default 1024). Overflow beyond the ring drops events
  /// (counted), never blocks. Values < 1 or non-integers are rejected
  /// with an error and exit(2).
  int64_t GetTraceBufferKb(int64_t default_value = 1024) const;

  /// The shared `--delta-encoding={dense,sparse}` flag: ShardDelta wire
  /// format of the sharded planes. dense (the default) ships every slot
  /// double (v1 frames, byte-identical to the seed); sparse ships v2
  /// zero-run-length frames that elide zero runs — decoded bit-identically,
  /// so results match dense exactly. Anything else exits(2).
  std::string GetDeltaEncoding(const std::string& default_value = "dense") const;

  /// The shared `--checkpoint-dir=PATH` flag: directory for CRC-verified
  /// training checkpoints (and their JSON sidecars). Empty (default)
  /// leaves checkpointing off. A non-writable directory is rejected with
  /// an error and exit(2) up front, like --trace.
  std::string GetCheckpointDir(const std::string& default_value = "") const;

  /// The shared `--checkpoint-every=N` flag: completed iterations between
  /// checkpoint writes (default 1 when --checkpoint-dir is set). Requires
  /// --checkpoint-dir; values < 1, non-integers, or use without the dir
  /// flag are rejected with an error and exit(2).
  int64_t GetCheckpointEvery(int64_t default_value = 0) const;

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace factorml

#endif  // FACTORML_COMMON_FLAGS_H_
