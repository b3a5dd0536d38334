// Process shard backend tests.
//
// 1) ShardRpcParityTest — the backend's whole contract in one sentence:
//    --shard-backend=process is *bit-identical* to the in-process sharded
//    backend. Objectives (exact doubles), parameters, op counts and the
//    per-shard page-request totals all match across four model families,
//    shards {2,4} x threads {1,4}. Real factormld processes are spawned
//    over Unix-domain sockets for every case.
// 2) ShardRpcFaultTest — failure semantics under injected faults
//    (FACTORMLD_FAULT_KILL / _STALL env specs, honored by factormld): a
//    SIGKILLed or hung worker's spans are requeued (with a recovery
//    rescan when the death lands mid-iteration) or the attempt restarts
//    (non-recoverable GMM covariance pass) — and in every case the final
//    model is still bit-identical to the healthy baseline.
// 3) Wire-level units: ShardJobSpec round-trip and the restart sentinel.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>

#include <string>
#include <vector>

#include "core/factorml.h"
#include "core/pipeline/checkpoint.h"
#include "core/pipeline/shard_rpc.h"
#include "core/pipeline/sharded_driver.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace factorml {
namespace {

using data::GenerateSynthetic;
using factorml::testing::TempDir;
using storage::BufferPool;

data::SyntheticSpec Spec(const std::string& dir, bool target) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.s_rows = 3000;
  spec.s_feats = 3;
  spec.attrs = {data::AttributeSpec{40, 5}};
  spec.clusters = 3;
  spec.with_target = target;
  spec.seed = 33;
  return spec;
}

uint64_t Counter(const char* name) {
  return obs::Registry::Instance().GetCounter(name)->Value();
}

/// RAII env spec for the factormld fault hooks (inherited by the workers
/// the coordinator spawns; cleared on scope exit so later tests spawn
/// healthy workers).
class ScopedFaultEnv {
 public:
  ScopedFaultEnv(const char* name, const std::string& spec) : name_(name) {
    setenv(name_, spec.c_str(), 1);
  }
  ~ScopedFaultEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

/// Runs `train` once per backend at the given schedule and pins every
/// bitwise-parity promise the process backend makes.
template <typename Options, typename TrainFn, typename DiffFn>
void ExpectProcessParity(const join::NormalizedRelations& rel, Options opt,
                         core::Algorithm algo, BufferPool* pool,
                         TrainFn train, DiffFn max_abs_diff,
                         const char* family) {
  for (const int shards : {2, 4}) {
    for (const int threads : {1, 4}) {
      const std::string tag = std::string(family) +
                              " shards=" + std::to_string(shards) +
                              " threads=" + std::to_string(threads);
      opt.shards = shards;
      opt.threads = threads;
      opt.shard_backend = "inproc";
      pool->Clear();
      core::TrainReport base_report;
      auto base = train(rel, opt, algo, pool, &base_report);
      ASSERT_TRUE(base.ok()) << tag << ": " << base.status().ToString();

      opt.shard_backend = "process";
      pool->Clear();
      core::TrainReport report;
      auto proc = train(rel, opt, algo, pool, &report);
      ASSERT_TRUE(proc.ok()) << tag << ": " << proc.status().ToString();

      // The hard contract: same bits, not approximately-same numbers.
      EXPECT_EQ(report.final_objective, base_report.final_objective) << tag;
      EXPECT_EQ(max_abs_diff(base.value(), proc.value()), 0.0) << tag;
      EXPECT_EQ(report.iterations, base_report.iterations) << tag;
      EXPECT_EQ(report.ops.mults, base_report.ops.mults) << tag;
      EXPECT_EQ(report.ops.adds, base_report.ops.adds) << tag;
      EXPECT_EQ(report.ops.subs, base_report.ops.subs) << tag;
      EXPECT_EQ(report.ops.exps, base_report.ops.exps) << tag;

      // Shard accounting: same effective shard count, same chunk spans
      // covering the whole plan; and because every node runs the same
      // deterministic scans, each shard issues the same number of page
      // requests on its node's pool as the time-shared backend did.
      EXPECT_EQ(report.shards, base_report.shards) << tag;
      ASSERT_EQ(report.shard_stats.size(), base_report.shard_stats.size())
          << tag;
      for (size_t k = 0; k < report.shard_stats.size(); ++k) {
        EXPECT_EQ(report.shard_stats[k].chunk_begin,
                  base_report.shard_stats[k].chunk_begin)
            << tag << " shard " << k;
        EXPECT_EQ(report.shard_stats[k].chunk_end,
                  base_report.shard_stats[k].chunk_end)
            << tag << " shard " << k;
        EXPECT_EQ(report.shard_stats[k].io.pool_hits +
                      report.shard_stats[k].io.pool_misses,
                  base_report.shard_stats[k].io.pool_hits +
                      base_report.shard_stats[k].io.pool_misses)
            << tag << " shard " << k;
      }
      if (!report.shard_stats.empty()) {
        EXPECT_EQ(report.shard_stats.front().chunk_begin, 0) << tag;
        EXPECT_EQ(report.shard_stats.back().chunk_end, report.morsel_chunks)
            << tag;
      }
    }
  }
}

TEST(ShardRpcParityTest, GmmFactorizedProcessMatchesInproc) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = dir.str();
  ExpectProcessParity(
      rel, opt, core::Algorithm::kFactorized, &pool,
      [](const join::NormalizedRelations& r, const gmm::GmmOptions& o,
         core::Algorithm a, BufferPool* p, core::TrainReport* rep) {
        return core::TrainGmm(r, o, a, p, rep);
      },
      &gmm::GmmParams::MaxAbsDiff, "gmm-F");
}

TEST(ShardRpcParityTest, LinregMaterializedProcessMatchesInproc) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = dir.str();
  ExpectProcessParity(
      rel, opt, core::Algorithm::kMaterialized, &pool,
      [](const join::NormalizedRelations& r, const linreg::LinregOptions& o,
         core::Algorithm a, BufferPool* p, core::TrainReport* rep) {
        return core::TrainLinreg(r, o, a, p, rep);
      },
      &linreg::LinregModel::MaxAbsDiff, "linreg-M");
}

TEST(ShardRpcParityTest, KmeansStreamingProcessMatchesInproc) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = dir.str();
  ExpectProcessParity(
      rel, opt, core::Algorithm::kStreaming, &pool,
      [](const join::NormalizedRelations& r, const kmeans::KmeansOptions& o,
         core::Algorithm a, BufferPool* p, core::TrainReport* rep) {
        return core::TrainKmeans(r, o, a, p, rep);
      },
      &kmeans::KmeansModel::MaxAbsDiff, "kmeans-S");
}

TEST(ShardRpcParityTest, LogregFactorizedProcessMatchesInproc) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  logreg::LogregOptions opt;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = dir.str();
  ExpectProcessParity(
      rel, opt, core::Algorithm::kFactorized, &pool,
      [](const join::NormalizedRelations& r, const logreg::LogregOptions& o,
         core::Algorithm a, BufferPool* p, core::TrainReport* rep) {
        return core::TrainLogreg(r, o, a, p, rep);
      },
      &logreg::LogregModel::MaxAbsDiff, "logreg-F");
}

TEST(ShardRpcParityTest, UnknownBackendRejected) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 1;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.shards = 2;
  opt.shard_backend = "carrier-pigeon";
  core::TrainReport report;
  auto r = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                          &report);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("shard-backend"), std::string::npos)
      << r.status().ToString();
}

// ----------------------------------------------------- fault injection
//
// All fault cases: GMM factorized, threads=1, shards=2, 2 iterations.
// GMM's pass_seq timeline is three full passes per iteration —
// iteration 0 runs seq 0 (E), 1 (mean), 2 (cov); iteration 1 runs
// 3, 4, 5. The E and mean passes are recoverable
// (ShardRecoverableAtPass), the cov pass is not (EndPass(kMeanStep)
// rewrote mu mid-iteration), which picks the recovery path per case.

struct FaultFixture {
  TempDir dir;
  BufferPool pool{512};
  join::NormalizedRelations rel;
  gmm::GmmOptions opt;
  double base_objective = 0.0;
  gmm::GmmParams base_params;

  FaultFixture()
      : rel(std::move(GenerateSynthetic(Spec(dir.str(), false), &pool))
                .value()) {
    opt.num_components = 3;
    opt.max_iters = 2;
    opt.batch_rows = 256;
    opt.morsel_rows = 200;
    opt.temp_dir = dir.str();
    opt.threads = 1;
    opt.shards = 2;
    pool.Clear();
    core::TrainReport report;
    auto base =
        core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &report);
    FML_CHECK(base.ok()) << base.status().ToString();
    base_objective = report.final_objective;
    base_params = std::move(base).value();
    opt.shard_backend = "process";
  }

  /// Runs the process backend under whatever fault env is in scope and
  /// checks bit-identity against the healthy inproc baseline.
  void RunAndExpectIdentical(const char* tag) {
    pool.Clear();
    core::TrainReport report;
    auto r =
        core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &report);
    ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
    EXPECT_EQ(report.final_objective, base_objective) << tag;
    EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base_params, r.value()), 0.0) << tag;
    EXPECT_EQ(report.iterations, 2) << tag;
  }
};

TEST(ShardRpcFaultTest, KilledWorkerOnEStepRequeuesBitIdentically) {
  FaultFixture fx;
  const uint64_t deaths = Counter("shard_rpc.worker_deaths");
  const uint64_t requeues = Counter("shard_rpc.requeues");
  const uint64_t restarts = Counter("shard_rpc.restarts");
  ScopedFaultEnv kill("FACTORMLD_FAULT_KILL", "0:0");  // worker 0, seq 0 (E)
  fx.RunAndExpectIdentical("kill@E");
  EXPECT_EQ(Counter("shard_rpc.worker_deaths"), deaths + 1);
  EXPECT_GE(Counter("shard_rpc.requeues"), requeues + 1);
  EXPECT_EQ(Counter("shard_rpc.restarts"), restarts);  // no restart needed
}

TEST(ShardRpcFaultTest, KilledWorkerMidIterationRecoversByRescan) {
  // Death on iteration 1's mean pass (seq 4, in-iteration pass index 1):
  // the surviving worker must rebuild per-row E-step state over the
  // acquired spans (recover_passes=1 prologue) before scanning the real
  // pass — the requeued delta is only bit-identical if it does.
  FaultFixture fx;
  const uint64_t deaths = Counter("shard_rpc.worker_deaths");
  const uint64_t restarts = Counter("shard_rpc.restarts");
  ScopedFaultEnv kill("FACTORMLD_FAULT_KILL", "0:4");
  fx.RunAndExpectIdentical("kill@mean");
  EXPECT_EQ(Counter("shard_rpc.worker_deaths"), deaths + 1);
  EXPECT_EQ(Counter("shard_rpc.restarts"), restarts);
}

TEST(ShardRpcFaultTest, KilledWorkerOnCovPassRestartsTraining) {
  // The covariance pass is non-recoverable: mu was rewritten at
  // EndPass(kMeanStep), so a mid-cov death cannot be replayed. The
  // coordinator must broadcast RESTART and rerun the whole training on
  // the survivor — still converging to the same bits.
  FaultFixture fx;
  const uint64_t deaths = Counter("shard_rpc.worker_deaths");
  const uint64_t restarts = Counter("shard_rpc.restarts");
  ScopedFaultEnv kill("FACTORMLD_FAULT_KILL", "0:2");
  fx.RunAndExpectIdentical("kill@cov");
  EXPECT_EQ(Counter("shard_rpc.worker_deaths"), deaths + 1);
  EXPECT_EQ(Counter("shard_rpc.restarts"), restarts + 1);
}

TEST(ShardRpcFaultTest, HungWorkerTimesOutAndIsRequeued) {
  // A stall, not a death: worker 0 sleeps through its E-step at seq 3.
  // Nothing arrives on its socket, so only --shard-timeout-ms can notice;
  // the coordinator SIGKILLs it and requeues exactly as for an EOF.
  FaultFixture fx;
  fx.opt.shard_timeout_ms = 2000;
  const uint64_t deaths = Counter("shard_rpc.worker_deaths");
  const uint64_t timeouts = Counter("shard_rpc.timeouts");
  ScopedFaultEnv stall("FACTORMLD_FAULT_STALL", "0:3:120000");
  fx.RunAndExpectIdentical("stall@E");
  EXPECT_EQ(Counter("shard_rpc.worker_deaths"), deaths + 1);
  EXPECT_EQ(Counter("shard_rpc.timeouts"), timeouts + 1);
}

// ------------------------------------------------------ wire-level units

TEST(ShardJobSpecTest, RoundTripsEveryField) {
  core::pipeline::ShardJobSpec spec;
  spec.s_path = "/data/s.fml";
  spec.attr_paths = {"/data/r1.fml", "/data/r2.fml"};
  spec.has_target = true;
  spec.pool_pages = 512;
  spec.algorithm = 'f';
  spec.batch_rows = 256;
  spec.threads = 4;
  spec.morsel_rows = 200;
  spec.steal = true;
  spec.prefetch = true;
  spec.prefetch_depth = 3;
  spec.shards = 4;
  spec.kernels = la::KernelMode::kSimd;
  spec.shard_timeout_ms = 1234;
  spec.temp_dir = "/tmp/w2";
  spec.worker_id = 2;
  spec.family = "gmm";
  spec.family_blob = std::string("\x01\x00\x7f", 3);

  spec.delta_encoding = "sparse";
  spec.checkpoint_dir = "/tmp/ckpts";
  spec.checkpoint_every = 3;

  const std::string blob = core::pipeline::EncodeShardJobSpec(spec);
  auto decoded = core::pipeline::DecodeShardJobSpec(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const core::pipeline::ShardJobSpec& d = decoded.value();
  EXPECT_EQ(d.s_path, spec.s_path);
  EXPECT_EQ(d.attr_paths, spec.attr_paths);
  EXPECT_EQ(d.has_target, spec.has_target);
  EXPECT_EQ(d.pool_pages, spec.pool_pages);
  EXPECT_EQ(d.algorithm, spec.algorithm);
  EXPECT_EQ(d.batch_rows, spec.batch_rows);
  EXPECT_EQ(d.threads, spec.threads);
  EXPECT_EQ(d.morsel_rows, spec.morsel_rows);
  EXPECT_EQ(d.steal, spec.steal);
  EXPECT_EQ(d.prefetch, spec.prefetch);
  EXPECT_EQ(d.prefetch_depth, spec.prefetch_depth);
  EXPECT_EQ(d.shards, spec.shards);
  EXPECT_EQ(d.kernels, spec.kernels);
  EXPECT_EQ(d.shard_timeout_ms, spec.shard_timeout_ms);
  EXPECT_EQ(d.temp_dir, spec.temp_dir);
  EXPECT_EQ(d.worker_id, spec.worker_id);
  EXPECT_EQ(d.family, spec.family);
  EXPECT_EQ(d.family_blob, spec.family_blob);
  EXPECT_EQ(d.delta_encoding, spec.delta_encoding);
  EXPECT_EQ(d.checkpoint_dir, spec.checkpoint_dir);
  EXPECT_EQ(d.checkpoint_every, spec.checkpoint_every);
}

TEST(ShardJobSpecTest, TrailingBytesRejected) {
  core::pipeline::ShardJobSpec spec;
  spec.s_path = "/data/s.fml";
  std::string blob = core::pipeline::EncodeShardJobSpec(spec);
  blob.push_back('\0');
  EXPECT_FALSE(core::pipeline::DecodeShardJobSpec(blob).ok());
}

// A minimal slot-holding program: one state vector per slot, visited
// whole. Enough to exercise every ShardDelta wire path without a
// training run behind it.
class SlotStateProgram : public core::pipeline::ModelProgram {
 public:
  explicit SlotStateProgram(std::vector<std::vector<double>> slots)
      : slots_(std::move(slots)) {}
  const char* Name() const override { return "slot-fake"; }
  const char* TempStem() const override { return "slot_fake"; }
  uint32_t Capabilities() const override { return 0; }
  int MaxIterations() const override { return 1; }
  Status Init(const core::pipeline::PipelineContext&) override {
    return Status::OK();
  }
  Result<bool> EndIteration(const core::pipeline::PipelineContext&,
                            int) override {
    return true;
  }
  double Objective() const override { return 0.0; }
  void VisitSlotState(
      int, int slot,
      const std::function<void(double*, size_t)>& visit) override {
    auto& s = slots_[static_cast<size_t>(slot)];
    if (!s.empty()) visit(s.data(), s.size());
  }

  std::vector<std::vector<double>> slots_;
};

std::vector<std::vector<double>> WireSlots() {
  // Zero runs, a literal stretch with -0.0 and a denormal (bit-pattern
  // non-zero: they must ship literally), an all-zero slot, a zero tail.
  return {{0.0, 0.0, 0.0, 1.5, -0.0, 5e-324, 2.25},
          {0.0, 0.0, 0.0, 0.0},
          {7.0, 0.0}};
}

TEST(ShardDeltaWireTest, SparseRoundTripsBitExactAndNoLarger) {
  auto original = WireSlots();
  for (const bool sparse : {false, true}) {
    SlotStateProgram src(original);
    const auto delta = core::pipeline::ExtractShardDelta(
        &src, 0, 1, exec::Range{0, 3}, sparse);
    // Extract zeroes the source slots: the bytes carry the whole state.
    for (const auto& s : src.slots_) {
      for (const double v : s) EXPECT_EQ(v, 0.0);
    }
    SlotStateProgram dst(
        {std::vector<double>(7, -1.0), std::vector<double>(4, -1.0),
         std::vector<double>(2, -1.0)});
    const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
    ASSERT_TRUE(st.ok()) << (sparse ? "sparse: " : "dense: ")
                         << st.ToString();
    for (size_t s = 0; s < original.size(); ++s) {
      for (size_t i = 0; i < original[s].size(); ++i) {
        EXPECT_EQ(std::memcmp(&dst.slots_[s][i], &original[s][i],
                              sizeof(double)),
                  0)
            << "slot " << s << " double " << i << " sparse=" << sparse;
      }
    }
  }
  SlotStateProgram a(original), b(original);
  const auto dense = core::pipeline::ExtractShardDelta(
      &a, 0, 1, exec::Range{0, 3}, /*sparse=*/false);
  const auto rle = core::pipeline::ExtractShardDelta(
      &b, 0, 1, exec::Range{0, 3}, /*sparse=*/true);
  EXPECT_LT(rle.wire_size(), dense.wire_size());
}

TEST(ShardDeltaWireTest, TruncatedFramesRejectedNamingTheShard) {
  for (const bool sparse : {false, true}) {
    SlotStateProgram src(WireSlots());
    auto delta = core::pipeline::ExtractShardDelta(&src, 0, 3,
                                                   exec::Range{0, 3}, sparse);
    delta.bytes.resize(delta.bytes.size() - 5);
    SlotStateProgram dst(WireSlots());
    const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
    ASSERT_FALSE(st.ok()) << "sparse=" << sparse;
    EXPECT_NE(st.ToString().find("shard 3"), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find("chunks [0, 3)"), std::string::npos)
        << st.ToString();
  }
}

TEST(ShardDeltaWireTest, TrailingBytesRejected) {
  // A frame that decodes fine but carries extra bytes is a framing bug
  // upstream; silently ignoring the tail would mask it.
  for (const bool sparse : {false, true}) {
    SlotStateProgram src(WireSlots());
    auto delta = core::pipeline::ExtractShardDelta(&src, 0, 0,
                                                   exec::Range{0, 3}, sparse);
    delta.bytes.append(8, '\0');
    SlotStateProgram dst(WireSlots());
    const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
    ASSERT_FALSE(st.ok()) << "sparse=" << sparse;
    EXPECT_NE(st.ToString().find("length mismatch"), std::string::npos)
        << st.ToString();
  }
}

TEST(ShardDeltaWireTest, SpanMismatchRejectedWithBothSpans) {
  SlotStateProgram src(WireSlots());
  auto delta =
      core::pipeline::ExtractShardDelta(&src, 0, 2, exec::Range{1, 3});
  delta.chunk_begin = 0;  // merge-side bookkeeping disagrees with the wire
  SlotStateProgram dst(WireSlots());
  const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("chunks [0, 3)"), std::string::npos)
      << st.ToString();  // what the merge expected
  EXPECT_NE(st.ToString().find("chunks [1, 3)"), std::string::npos)
      << st.ToString();  // what the wire carried
}

TEST(ShardDeltaWireTest, ShapeDriftRejectedWithByteCounts) {
  SlotStateProgram src(WireSlots());
  const auto delta =
      core::pipeline::ExtractShardDelta(&src, 0, 0, exec::Range{0, 3});
  auto grown = WireSlots();
  grown[1].push_back(0.0);  // receiver's slot 1 is one double wider
  SlotStateProgram dst(std::move(grown));
  const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("shape drifted"), std::string::npos)
      << st.ToString();
}

// ----------------------------------------- checkpoint + coordinator kill

TEST(ShardRpcFaultTest, KilledCoordinatorResumesBitIdentically) {
  // The full crash story: a process-backend run with checkpointing is
  // SIGKILLed at the top of iteration 1 (pass seq 3 = iteration 1's
  // E-step; iteration 0's checkpoint is already on disk). A rerun with
  // the same flags restores coordinator AND workers from that checkpoint
  // and must finish bit-identical to the never-killed baseline — same
  // objective bits, same params, same op counters.
  FaultFixture fx;
  TempDir ckpt;
  fx.opt.checkpoint_dir = ckpt.str();

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The doomed attempt. The env spec only matches the coordinator-side
    // hook ("coord:<seq>"); worker processes ignore it.
    setenv("FACTORMLD_FAULT_KILL", "coord:3", 1);
    core::TrainReport report;
    auto r = core::TrainGmm(fx.rel, fx.opt, core::Algorithm::kFactorized,
                            &fx.pool, &report);
    // Reaching here means the kill hook never fired.
    _exit(r.ok() ? 7 : 8);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "coordinator was not killed (exit status " << wstatus << ")";
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The checkpoint the killed run left behind covers iteration 0 only.
  auto left = core::pipeline::ReadCheckpoint(ckpt.str(), "F-GMM");
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(left.value().completed_iterations, 1);

  // Rerun with the same flags, no fault env: restores and finishes.
  fx.RunAndExpectIdentical("resume-after-coordinator-kill");
}

TEST(ShardRestartTest, SentinelRoundTrips) {
  const Status restart = core::pipeline::ShardRestartStatus(2);
  EXPECT_FALSE(restart.ok());
  EXPECT_TRUE(core::pipeline::IsShardRestart(restart));
  EXPECT_FALSE(core::pipeline::IsShardRestart(Status::OK()));
  EXPECT_FALSE(core::pipeline::IsShardRestart(
      Status::FailedPrecondition("recv timeout")));
  EXPECT_FALSE(
      core::pipeline::IsShardRestart(Status::Internal("shard-restart: ")));
  // The signal is the status code, not the text: the old sentinel's
  // spelling under another code is an ordinary error.
  EXPECT_FALSE(core::pipeline::IsShardRestart(
      Status::FailedPrecondition("shard-restart: attempt 2")));
  EXPECT_EQ(restart.code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace factorml
