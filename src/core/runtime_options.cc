#include "core/runtime_options.h"

#include <algorithm>
#include <string>

#include "common/flags.h"

namespace factorml::core {

Status RuntimeOptions::Validate() const {
  if (batch_rows == 0) {
    return Status::InvalidArgument("batch_rows (--batch) must be >= 1");
  }
  if (shard_backend != "inproc" && shard_backend != "process") {
    return Status::InvalidArgument("unknown --shard-backend=" + shard_backend +
                                   " (expected inproc or process)");
  }
  if (delta_encoding != "dense" && delta_encoding != "sparse") {
    return Status::InvalidArgument("unknown --delta-encoding=" +
                                   delta_encoding +
                                   " (expected dense or sparse)");
  }
  if (checkpoint_every < 0) {
    return Status::InvalidArgument("--checkpoint-every=" +
                                   std::to_string(checkpoint_every) +
                                   " must be >= 1");
  }
  if (checkpoint_every > 0 && checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every requires --checkpoint-dir");
  }
  return Status::OK();
}

RuntimeOptions RuntimeOptionsFromFlags(const ArgParser& args,
                                       size_t default_batch_rows) {
  RuntimeOptions o;
  o.batch_rows = static_cast<size_t>(std::max<int64_t>(
      0, args.GetInt("batch", static_cast<int64_t>(default_batch_rows))));
  o.temp_dir = args.GetString("dir", o.temp_dir);
  o.threads = args.GetThreads(1);
  o.morsel_rows = args.GetMorselRows(o.morsel_rows);
  o.steal = args.GetSteal(o.steal);
  o.prefetch = args.GetPrefetch(o.prefetch);
  o.prefetch_depth = args.GetPrefetchDepth(o.prefetch_depth);
  o.shards = args.GetShards(o.shards);
  o.kernels = args.GetKernels() == "simd" ? la::KernelMode::kSimd
                                          : la::KernelMode::kScalar;
  o.shard_backend = args.GetShardBackend(o.shard_backend);
  o.shard_timeout_ms = args.GetShardTimeoutMs(o.shard_timeout_ms);
  o.shard_transport = args.GetShardTransport(o.shard_transport);
  o.shard_worker_path = args.GetString("factormld", o.shard_worker_path);
  o.delta_encoding = args.GetDeltaEncoding(o.delta_encoding);
  o.checkpoint_dir = args.GetCheckpointDir(o.checkpoint_dir);
  o.checkpoint_every = args.GetCheckpointEvery(o.checkpoint_every);
  return o;
}

}  // namespace factorml::core
