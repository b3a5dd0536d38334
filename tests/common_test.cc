#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "la/kernels.h"
#include "common/opcount.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/factorml.h"
#include "gtest/gtest.h"

namespace factorml {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad dims");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad dims");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad dims");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::Aborted("x").ToString(), "Aborted: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Status FailingHelper() { return Status::IoError("disk gone"); }

Status UsesReturnIfError() {
  FML_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kIoError);
}

Result<int> GivesSeven() { return 7; }

Status UsesAssignOrReturn(int* out) {
  FML_ASSIGN_OR_RETURN(int v, GivesSeven());
  *out = v;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnAssigns) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(&out).ok());
  EXPECT_EQ(out, 7);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, SaveRestoreStateResumesBitIdentically) {
  // The checkpoint seam: capture mid-stream (with the Box-Muller cache
  // half-full) and replay into a generator seeded differently — the
  // restored stream must continue bit-for-bit where the original left
  // off, gaussians included.
  Rng a(123);
  for (int i = 0; i < 7; ++i) a.NextGaussian();  // odd count: cache is hot
  double st[Rng::kStateDoubles];
  a.SaveState(st);
  Rng b(999);
  b.RestoreState(st);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.NextGaussian(), b.NextGaussian()) << "draw " << i;
    EXPECT_EQ(a.NextU64(), b.NextU64()) << "draw " << i;
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit over 1000 draws
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
  // Practically never identity.
  bool identity = true;
  for (int i = 0; i < 100; ++i) identity = identity && v[i] == i;
  EXPECT_FALSE(identity);
}

// ----------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesTypedValues) {
  const char* argv[] = {"prog", "--n=42",    "--rate=0.5", "--name=abc",
                        "--on", "--off=false", "positional"};
  ArgParser args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(args.GetString("name", ""), "abc");
  EXPECT_TRUE(args.GetBool("on", false));
  EXPECT_FALSE(args.GetBool("off", true));
  EXPECT_FALSE(args.Has("positional"));
}

TEST(FlagsTest, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("n", 5), 5);
  EXPECT_EQ(args.GetString("s", "dflt"), "dflt");
}

TEST(FlagsTest, TraceFlagsValidValuesPassThrough) {
  const std::string good = ::testing::TempDir() + "/flags_trace_probe.json";
  const std::string trace_arg = "--trace=" + good;
  const char* argv[] = {"prog", trace_arg.c_str(), "--trace-buffer-kb=64"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.GetTracePath(), good);
  EXPECT_EQ(args.GetTraceBufferKb(), 64);
  std::remove(good.c_str());
}

TEST(FlagsTest, TraceFlagsDefaults) {
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.GetTracePath(), "");
  EXPECT_EQ(args.GetTraceBufferKb(), 1024);
}

// The trace flags fail fast (exit 2 with a usage message) on an
// unwritable path or a bad ring size — before the traced run burns its
// wall time, not at the flush.
TEST(FlagsDeathTest, UnwritableTracePathExits2) {
  const char* argv[] = {"prog",
                        "--trace=/nonexistent_dir_xyz_42/trace.json"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetTracePath(), ::testing::ExitedWithCode(2),
              "invalid --trace=");
}

TEST(FlagsDeathTest, TraceBufferKbBelowOneExits2) {
  const char* argv[] = {"prog", "--trace-buffer-kb=0"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetTraceBufferKb(), ::testing::ExitedWithCode(2),
              "invalid --trace-buffer-kb");
}

TEST(FlagsTest, KernelsValidValuesAndDefault) {
  const char* argv[] = {"prog", "--kernels=simd"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetKernels(), "simd");
  const char* argv2[] = {"prog", "--kernels=scalar"};
  ArgParser args2(2, const_cast<char**>(argv2));
  EXPECT_EQ(args2.GetKernels(), "scalar");
  const char* argv3[] = {"prog"};
  ArgParser args3(1, const_cast<char**>(argv3));
  EXPECT_EQ(args3.GetKernels(), "scalar");
}

// Unknown kernel backends fail fast (exit 2, listing the choices) before
// a long training run silently falls back to the wrong plane.
TEST(FlagsDeathTest, UnknownKernelsValueExits2) {
  const char* argv[] = {"prog", "--kernels=avx512"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetKernels(), ::testing::ExitedWithCode(2),
              "invalid --kernels=avx512");
}

/// Saves the ambient FACTORML_KERNELS_BACKEND (CI's forced-portable job
/// exports it job-wide) and restores it on scope exit.
struct SavedBackendEnv {
  SavedBackendEnv() {
    const char* prev = std::getenv("FACTORML_KERNELS_BACKEND");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
  }
  ~SavedBackendEnv() {
    if (had_prev_) {
      setenv("FACTORML_KERNELS_BACKEND", prev_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("FACTORML_KERNELS_BACKEND");
    }
  }
  std::string prev_;
  bool had_prev_ = false;
};

TEST(KernelsBackendDeathTest, UnknownBackendEnvExits2) {
  SavedBackendEnv saved;
  setenv("FACTORML_KERNELS_BACKEND", "avx512", /*overwrite=*/1);
  EXPECT_EXIT(la::SelectKernels(la::KernelMode::kSimd),
              ::testing::ExitedWithCode(2),
              "invalid FACTORML_KERNELS_BACKEND=avx512");
}

TEST(KernelsBackendTest, ValidOverridesSelectWithoutExit) {
  SavedBackendEnv saved;
  for (const char* v : {"scalar", "portable", "native"}) {
    setenv("FACTORML_KERNELS_BACKEND", v, /*overwrite=*/1);
    la::SelectKernels(la::KernelMode::kSimd);  // must not exit
  }
  // Empty string behaves like unset: native pick.
  setenv("FACTORML_KERNELS_BACKEND", "", /*overwrite=*/1);
  la::SelectKernels(la::KernelMode::kSimd);
  la::SelectKernels(la::KernelMode::kScalar);
}

TEST(FlagsDeathTest, TraceBufferKbNonIntegerExits2) {
  const char* argv[] = {"prog", "--trace-buffer-kb=abc"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetTraceBufferKb(), ::testing::ExitedWithCode(2),
              "invalid --trace-buffer-kb");
}

TEST(FlagsTest, IntListParsing) {
  const char* argv[] = {"prog", "--rr=50,100,500"};
  ArgParser args(2, const_cast<char**>(argv));
  const auto v = args.GetIntList("rr", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 50);
  EXPECT_EQ(v[2], 500);
  const auto dflt = args.GetIntList("other", {1, 2});
  EXPECT_EQ(dflt.size(), 2u);
}

// GetInt historically ran strtoll with no end-pointer/errno check, so
// `--iters=abc` silently trained for 0 iterations. It now fails fast
// like every validated getter, naming the flag and the bad value.
TEST(FlagsDeathTest, GetIntNonIntegerExits2) {
  const char* argv[] = {"prog", "--iters=abc"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetInt("iters", 10), ::testing::ExitedWithCode(2),
              "invalid --iters=abc");
}

TEST(FlagsDeathTest, GetIntTrailingGarbageExits2) {
  const char* argv[] = {"prog", "--k=5x"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetInt("k", 3), ::testing::ExitedWithCode(2),
              "invalid --k=5x");
}

TEST(FlagsDeathTest, GetIntOutOfRangeExits2) {
  const char* argv[] = {"prog", "--n=99999999999999999999999999"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetInt("n", 0), ::testing::ExitedWithCode(2),
              "invalid --n=");
}

TEST(FlagsDeathTest, GetIntListBadItemExits2) {
  const char* argv[] = {"prog", "--rr=50,abc,500"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetIntList("rr", {}), ::testing::ExitedWithCode(2),
              "'abc' is not an integer");
}

// GetDouble read a malformed number as its numeric prefix, so
// `--l2=abc` trained with l2 = 0 and `--lr=0.05x` with lr = 0.05.
TEST(FlagsDeathTest, GetDoubleNonNumberExits2) {
  const char* argv[] = {"prog", "--l2=abc"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetDouble("l2", 1e-3), ::testing::ExitedWithCode(2),
              "invalid --l2=abc");
}

TEST(FlagsDeathTest, GetDoubleTrailingGarbageExits2) {
  const char* argv[] = {"prog", "--lr=0.05x"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetDouble("lr", 0.1), ::testing::ExitedWithCode(2),
              "invalid --lr=0.05x");
}

TEST(FlagsDeathTest, GetDoubleEmptyExits2) {
  const char* argv[] = {"prog", "--tol="};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetDouble("tol", 0.0), ::testing::ExitedWithCode(2),
              "invalid --tol=");
}

// Range is the caller's ValidateOptions' call: non-finite spellings and
// exponents still parse, so `--l2=nan` exits 1 naming the option.
TEST(FlagsTest, GetDoubleParsesNonFiniteAndExponents) {
  const char* argv[] = {"prog", "--a=nan", "--b=-inf", "--c=1e-3",
                        "--d=-2.5"};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_TRUE(std::isnan(args.GetDouble("a", 0.0)));
  EXPECT_EQ(args.GetDouble("b", 0.0), -HUGE_VAL);
  EXPECT_EQ(args.GetDouble("c", 0.0), 1e-3);
  EXPECT_EQ(args.GetDouble("d", 0.0), -2.5);
}

// Only `--buffer-pages` sets the pool size; the old `--pool_pages`
// spelling is an unknown flag like any other.
TEST(FlagsTest, BufferPagesHasOneSpelling) {
  const char* argv[] = {"prog", "--pool_pages=7"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetBufferPages(2048), 2048);
  const char* argv2[] = {"prog", "--buffer-pages=7"};
  ArgParser args2(2, const_cast<char**>(argv2));
  EXPECT_EQ(args2.GetBufferPages(2048), 7);
}

TEST(FlagsTest, GetIntNegativeStillParses) {
  const char* argv[] = {"prog", "--delta=-7"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("delta", 0), -7);
}

TEST(FlagsTest, ShardBackendFlagsValidAndDefaults) {
  const char* argv[] = {"prog", "--shard-backend=process",
                        "--shard-timeout-ms=500", "--shard-transport=tcp"};
  ArgParser args(4, const_cast<char**>(argv));
  EXPECT_EQ(args.GetShardBackend(), "process");
  EXPECT_EQ(args.GetShardTimeoutMs(), 500);
  EXPECT_EQ(args.GetShardTransport(), "tcp");
  const char* argv2[] = {"prog"};
  ArgParser args2(1, const_cast<char**>(argv2));
  EXPECT_EQ(args2.GetShardBackend(), "inproc");
  EXPECT_EQ(args2.GetShardTimeoutMs(), 30000);
  EXPECT_EQ(args2.GetShardTransport(), "unix");
}

TEST(FlagsDeathTest, UnknownShardBackendExits2) {
  const char* argv[] = {"prog", "--shard-backend=grpc"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetShardBackend(), ::testing::ExitedWithCode(2),
              "invalid --shard-backend=grpc");
}

TEST(FlagsDeathTest, ShardTimeoutBelowOneExits2) {
  const char* argv[] = {"prog", "--shard-timeout-ms=0"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetShardTimeoutMs(), ::testing::ExitedWithCode(2),
              "invalid --shard-timeout-ms");
}

TEST(FlagsTest, CheckpointAndDeltaFlagsValidAndDefaults) {
  const std::string dir = ::testing::TempDir();
  const std::string dir_arg = "--checkpoint-dir=" + dir;
  const char* argv[] = {"prog", dir_arg.c_str(), "--checkpoint-every=3",
                        "--delta-encoding=sparse"};
  ArgParser args(4, const_cast<char**>(argv));
  EXPECT_EQ(args.GetCheckpointDir(), dir);
  EXPECT_EQ(args.GetCheckpointEvery(), 3);
  EXPECT_EQ(args.GetDeltaEncoding(), "sparse");
  const char* argv2[] = {"prog"};
  ArgParser args2(1, const_cast<char**>(argv2));
  EXPECT_EQ(args2.GetCheckpointDir(), "");
  EXPECT_EQ(args2.GetCheckpointEvery(), 0);
  EXPECT_EQ(args2.GetDeltaEncoding(), "dense");
}

// The checkpoint/delta flags fail fast (exit 2 naming flag and value)
// before a long run discovers at its first write that the directory is
// unusable or the interval nonsense.
TEST(FlagsDeathTest, UnknownDeltaEncodingExits2) {
  const char* argv[] = {"prog", "--delta-encoding=gzip"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetDeltaEncoding(), ::testing::ExitedWithCode(2),
              "invalid --delta-encoding=gzip");
}

TEST(FlagsDeathTest, UnwritableCheckpointDirExits2) {
  const char* argv[] = {"prog", "--checkpoint-dir=/nonexistent_dir_xyz_42"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetCheckpointDir(), ::testing::ExitedWithCode(2),
              "invalid --checkpoint-dir=/nonexistent_dir_xyz_42");
}

TEST(FlagsDeathTest, CheckpointEveryWithoutDirExits2) {
  const char* argv[] = {"prog", "--checkpoint-every=2"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetCheckpointEvery(), ::testing::ExitedWithCode(2),
              "invalid --checkpoint-every=2 \\(requires --checkpoint-dir");
}

TEST(FlagsDeathTest, CheckpointEveryBelowOneExits2) {
  const std::string dir_arg = "--checkpoint-dir=" + ::testing::TempDir();
  const char* argv[] = {"prog", dir_arg.c_str(), "--checkpoint-every=0"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetCheckpointEvery(), ::testing::ExitedWithCode(2),
              "invalid --checkpoint-every=0");
}

// --------------------------------------------------- RuntimeOptions flags

// Every runtime flag of the train-* commands lands in its RuntimeOptions
// field through the one shared reader.
TEST(RuntimeFlagsTest, EveryFlagLandsInItsField) {
  const std::string dir = ::testing::TempDir();
  const std::vector<std::string> flags = {
      "--dir=" + dir,          "--batch=300",
      "--threads=3",           "--morsel-rows=512",
      "--steal=on",            "--prefetch=on",
      "--prefetch-depth=4",    "--shards=5",
      "--kernels=simd",        "--shard-backend=process",
      "--shard-timeout-ms=77", "--shard-transport=tcp",
      "--factormld=workers/factormld", "--delta-encoding=sparse",
      "--checkpoint-dir=" + dir, "--checkpoint-every=6"};
  std::vector<const char*> argv = {"prog"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  ArgParser args(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()));
  const core::RuntimeOptions o = core::RuntimeOptionsFromFlags(args, 8192);
  EXPECT_EQ(o.batch_rows, 300u);
  EXPECT_EQ(o.temp_dir, dir);
  EXPECT_EQ(o.threads, 3);
  EXPECT_EQ(o.morsel_rows, 512);
  EXPECT_TRUE(o.steal);
  EXPECT_TRUE(o.prefetch);
  EXPECT_EQ(o.prefetch_depth, 4);
  EXPECT_EQ(o.shards, 5);
  EXPECT_EQ(o.kernels, la::KernelMode::kSimd);
  EXPECT_EQ(o.shard_backend, "process");
  EXPECT_EQ(o.shard_timeout_ms, 77);
  EXPECT_EQ(o.shard_transport, "tcp");
  EXPECT_EQ(o.shard_worker_path, "workers/factormld");
  EXPECT_EQ(o.delta_encoding, "sparse");
  EXPECT_EQ(o.checkpoint_dir, dir);
  EXPECT_EQ(o.checkpoint_every, 6);
  EXPECT_TRUE(o.Validate().ok()) << o.Validate().ToString();
}

// Without flags the reader yields the struct defaults, except --batch,
// whose default is the family's own (NN trains in 1024-row mini-batches).
TEST(RuntimeFlagsTest, DefaultsAndPerFamilyBatch) {
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  const core::RuntimeOptions defaults;
  for (const size_t batch : {gmm::GmmOptions().batch_rows,
                             nn::NnOptions().batch_rows}) {
    const core::RuntimeOptions o = core::RuntimeOptionsFromFlags(args, batch);
    EXPECT_EQ(o.batch_rows, batch);
    EXPECT_EQ(o.temp_dir, defaults.temp_dir);
    EXPECT_EQ(o.threads, 1);
    EXPECT_EQ(o.morsel_rows, defaults.morsel_rows);
    EXPECT_EQ(o.steal, defaults.steal);
    EXPECT_EQ(o.prefetch, defaults.prefetch);
    EXPECT_EQ(o.prefetch_depth, defaults.prefetch_depth);
    EXPECT_EQ(o.shards, defaults.shards);
    EXPECT_EQ(o.kernels, defaults.kernels);
    EXPECT_EQ(o.shard_backend, defaults.shard_backend);
    EXPECT_EQ(o.shard_timeout_ms, defaults.shard_timeout_ms);
    EXPECT_EQ(o.shard_transport, defaults.shard_transport);
    EXPECT_EQ(o.shard_worker_path, defaults.shard_worker_path);
    EXPECT_EQ(o.delta_encoding, defaults.delta_encoding);
    EXPECT_EQ(o.checkpoint_dir, defaults.checkpoint_dir);
    EXPECT_EQ(o.checkpoint_every, defaults.checkpoint_every);
  }
  EXPECT_EQ(gmm::GmmOptions().batch_rows, 8192u);
  EXPECT_EQ(linreg::LinregOptions().batch_rows, 8192u);
  EXPECT_EQ(kmeans::KmeansOptions().batch_rows, 8192u);
  EXPECT_EQ(logreg::LogregOptions().batch_rows, 8192u);
  EXPECT_EQ(nn::NnOptions().batch_rows, 1024u);
}

// --batch=0 (or below) survives the reader and is rejected by Validate,
// naming the flag; the train-* commands then exit 1, not abort.
TEST(RuntimeFlagsTest, NonPositiveBatchFailsValidation) {
  for (const char* batch : {"--batch=0", "--batch=-4"}) {
    const char* argv[] = {"prog", batch};
    ArgParser args(2, const_cast<char**>(argv));
    const Status st = core::RuntimeOptionsFromFlags(args, 8192).Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << batch;
    EXPECT_NE(st.message().find("--batch"), std::string::npos)
        << st.ToString();
  }
}

// -------------------------------------------------------------- OpCount

TEST(OpCountTest, CountersAccumulateAndDiff) {
  ResetGlobalOps();
  CountMults(10);
  CountAdds(5);
  const OpCounters snap = GlobalOps();
  CountMults(7);
  CountSubs(2);
  const OpCounters delta = GlobalOps() - snap;
  EXPECT_EQ(delta.mults, 7u);
  EXPECT_EQ(delta.subs, 2u);
  EXPECT_EQ(delta.adds, 0u);
  EXPECT_EQ(GlobalOps().mults, 17u);
}

TEST(OpCountTest, TotalAndToString) {
  OpCounters c{1, 2, 3, 4};
  EXPECT_EQ(c.Total(), 10u);
  EXPECT_NE(c.ToString().find("mults=1"), std::string::npos);
}

// ------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch w;
  const double t1 = w.ElapsedSeconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  const double t2 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  w.Restart();
  EXPECT_LE(w.ElapsedSeconds(), t2 + 1.0);
}

}  // namespace
}  // namespace factorml
