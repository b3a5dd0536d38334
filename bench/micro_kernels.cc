// google-benchmark microbenchmarks for the substrate kernels: dense
// linear algebra, Cholesky, storage scans and the streamed join. These
// are the building blocks whose relative costs determine where the
// M/S/F trade-offs land on a given machine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/factorml.h"
#include "join/join_cursor.h"
#include "la/cholesky.h"
#include "la/kernels.h"
#include "la/ops.h"

namespace factorml {
namespace {

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

void BM_GemmNT(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  la::Matrix x = RandomMatrix(256, n, 1);
  la::Matrix w = RandomMatrix(64, n, 2);
  la::Matrix c;
  for (auto _ : state) {
    la::GemmNT(x, w, &c, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 64 * n);
}
BENCHMARK(BM_GemmNT)->Arg(8)->Arg(32)->Arg(128);

void BM_QuadForm(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  la::Matrix a = RandomMatrix(d, d, 3);
  la::Matrix x = RandomMatrix(1, d, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::QuadForm(a, x.Row(0).data(), d));
  }
}
BENCHMARK(BM_QuadForm)->Arg(8)->Arg(32)->Arg(128);

void BM_BlockQuadFormSplit(benchmark::State& state) {
  // The factorized E-step's cost shape: UL + UR + LL on a dS/dR split,
  // with the LR block assumed cached.
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t ds = d / 4;
  const size_t dr = d - ds;
  la::Matrix a = RandomMatrix(d, d, 5);
  la::Matrix x = RandomMatrix(1, d, 6);
  const double* xs = x.Row(0).data();
  const double* xr = xs + ds;
  for (auto _ : state) {
    double q = la::Bilinear(a, 0, 0, xs, ds, xs, ds);
    q += la::Bilinear(a, 0, ds, xs, ds, xr, dr);
    q += la::Bilinear(a, ds, 0, xr, dr, xs, ds);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BlockQuadFormSplit)->Arg(8)->Arg(32)->Arg(128);

void BM_Cholesky(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  la::Matrix b = RandomMatrix(d, d, 7);
  la::Matrix a(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < d; ++p) s += b(i, p) * b(j, p);
      a(i, j) = s;
    }
    a(i, i) += d;
  }
  la::Cholesky chol;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chol.Factor(a).ok());
  }
}
BENCHMARK(BM_Cholesky)->Arg(8)->Arg(32)->Arg(128);

class StorageFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (rel) return;
    dir = std::make_unique<bench::BenchDir>();
    pool = std::make_unique<storage::BufferPool>(4096);
    data::SyntheticSpec spec;
    spec.dir = dir->str();
    spec.s_rows = 50000;
    spec.s_feats = 5;
    spec.attrs = {data::AttributeSpec{500, 10}};
    spec.seed = 9;
    auto r = data::GenerateSynthetic(spec, pool.get());
    if (!r.ok()) bench::Die(r.status());
    rel = std::make_unique<join::NormalizedRelations>(std::move(r).value());
  }

  static std::unique_ptr<bench::BenchDir> dir;
  static std::unique_ptr<storage::BufferPool> pool;
  static std::unique_ptr<join::NormalizedRelations> rel;
};
std::unique_ptr<bench::BenchDir> StorageFixture::dir;
std::unique_ptr<storage::BufferPool> StorageFixture::pool;
std::unique_ptr<join::NormalizedRelations> StorageFixture::rel;

BENCHMARK_F(StorageFixture, BM_TableScan)(benchmark::State& state) {
  storage::RowBatch batch;
  for (auto _ : state) {
    storage::TableScanner scanner(&rel->s, pool.get(), 4096);
    int64_t rows = 0;
    while (scanner.Next(&batch)) rows += batch.num_rows;
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rel->s.num_rows());
}

BENCHMARK_F(StorageFixture, BM_JoinCursorStream)(benchmark::State& state) {
  join::JoinBatch batch;
  for (auto _ : state) {
    join::JoinCursor cursor(rel.get(), pool.get(), 4096);
    int64_t rows = 0;
    while (cursor.Next(&batch)) rows += batch.s_rows.num_rows;
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rel->s.num_rows());
}

BENCHMARK_F(StorageFixture, BM_MaterializeJoin)(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    auto t = join::MaterializeJoin(
        *rel, pool.get(), dir->str() + "/bm_t" + std::to_string(i++ % 4) +
                              ".fml");
    if (!t.ok()) bench::Die(t.status());
    benchmark::DoNotOptimize(t.value().num_rows());
  }
}

// ---------------------------------------------------------------------
// Thread scaling of the factorized trainers over the fig3 binary-join
// workload (nS = rr * nR, dS = 5, dR = 15). One row per thread count —
// the exec/ runtime's speedup report; --threads=1 is the serial baseline.

class Fig3ScalingFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (rel) return;
    dir = std::make_unique<bench::BenchDir>();
    pool = std::make_unique<storage::BufferPool>(4096);
    data::SyntheticSpec spec;
    spec.dir = dir->str();
    spec.name = "fig3_scaling";
    spec.s_rows = 40000;
    spec.s_feats = 5;
    spec.attrs = {data::AttributeSpec{200, 15}};
    spec.with_target = true;  // shared by the GMM and NN scaling runs
    spec.seed = 11;
    auto r = data::GenerateSynthetic(spec, pool.get());
    if (!r.ok()) bench::Die(r.status());
    rel = std::make_unique<join::NormalizedRelations>(std::move(r).value());
  }

  static std::unique_ptr<bench::BenchDir> dir;
  static std::unique_ptr<storage::BufferPool> pool;
  static std::unique_ptr<join::NormalizedRelations> rel;
};
std::unique_ptr<bench::BenchDir> Fig3ScalingFixture::dir;
std::unique_ptr<storage::BufferPool> Fig3ScalingFixture::pool;
std::unique_ptr<join::NormalizedRelations> Fig3ScalingFixture::rel;

BENCHMARK_DEFINE_F(Fig3ScalingFixture, BM_FGmmThreads)
(benchmark::State& state) {
  gmm::GmmOptions opt;
  opt.num_components = 5;
  opt.max_iters = 2;
  opt.temp_dir = dir->str();
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pool->Clear();
    auto p = gmm::TrainGmmFactorized(*rel, opt, pool.get(), nullptr);
    if (!p.ok()) bench::Die(p.status());
    benchmark::DoNotOptimize(p.value().pi.data());
  }
  state.SetItemsProcessed(state.iterations() * rel->s.num_rows());
}
BENCHMARK_REGISTER_F(Fig3ScalingFixture, BM_FGmmThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(Fig3ScalingFixture, BM_FNnThreads)
(benchmark::State& state) {
  nn::NnOptions opt;
  opt.hidden = {50};
  opt.epochs = 2;
  opt.temp_dir = dir->str();
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pool->Clear();
    auto m = nn::TrainNnFactorized(*rel, opt, pool.get(), nullptr);
    if (!m.ok()) bench::Die(m.status());
    benchmark::DoNotOptimize(m.value().w[0].data());
  }
  state.SetItemsProcessed(state.iterations() * rel->s.num_rows());
}
BENCHMARK_REGISTER_F(Fig3ScalingFixture, BM_FNnThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Kernel plane: the strip batch kernels under the scalar table vs the
// vector table this CPU resolves to (portable or avx2). Arg pair =
// (d, backend) with backend 0 = scalar, 1 = simd; the label names the
// resolved table. These are the per-strip inner loops whose scalar/simd
// ratio bounds what --kernels=simd can buy a whole training run.

constexpr size_t kStripRows = 256;  // storage::kDefaultStripRows
constexpr size_t kNh = 16;          // NN hidden width for the gemm shapes
constexpr size_t kGatherRows = 64;  // attribute-table height for gathers

/// One decoded strip's worth of random columns plus the small operands
/// the strip kernels take, including the gemm/gather operands of the NN
/// epoch plane (W1 slice, transposed activation block, partial-cache
/// rows and a rid column).
struct StripData {
  StripData(size_t d, size_t rows, uint64_t seed, size_t nh = kNh)
      : data(d * rows), w(rows), v(d), center(d), out(rows), cols(d),
        w1(nh * d), ct(nh * rows), grad(nh * d),
        base(kGatherRows * kNh), gout(rows * kNh), idx(rows) {
    Rng rng(seed);
    for (double& x : data) x = rng.NextGaussian();
    for (double& x : w) x = rng.NextUniform(0.25, 1.25);
    for (double& x : v) x = rng.NextGaussian();
    for (double& x : center) x = rng.NextGaussian();
    for (double& x : w1) x = rng.NextGaussian();
    for (double& x : base) x = rng.NextGaussian();
    for (double& x : ct) x = rng.NextGaussian();
    for (size_t j = 0; j < d; ++j) cols[j] = data.data() + j * rows;
    // FK1-run-shaped rid column: short contiguous runs, like the group
    // batches join::ChunkFk1Runs delivers.
    for (size_t r = 0; r < rows; ++r) {
      idx[r] = static_cast<int64_t>((r / 4) % kGatherRows);
    }
  }
  std::vector<double> data, w, v, center, out;
  std::vector<const double*> cols;
  std::vector<double> w1, ct, grad, base, gout;
  std::vector<int64_t> idx;
};

la::KernelMode ModeOf(const benchmark::State& state) {
  return state.range(1) == 1 ? la::KernelMode::kSimd
                             : la::KernelMode::kScalar;
}

void LabelBackend(benchmark::State& state) {
  state.SetLabel(state.range(1) == 1 ? la::SimdBackendName() : "scalar");
}

void BM_SyrkStrip(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 21);
  std::vector<double> gram(d * d, 0.0);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.syrk_strip(s.cols.data(), d, kStripRows, s.w.data(), gram.data(), d);
    benchmark::DoNotOptimize(gram.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * d * d);
  LabelBackend(state);
}
BENCHMARK(BM_SyrkStrip)->ArgsProduct({{8, 32}, {0, 1}});

void BM_ColDotStrip(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 22);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.col_dot_strip(s.cols.data(), d, kStripRows, s.v.data(),
                    s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * d);
  LabelBackend(state);
}
BENCHMARK(BM_ColDotStrip)->ArgsProduct({{8, 32}, {0, 1}});

void BM_DistStrip(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 23);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.dist_strip(s.cols.data(), d, kStripRows, s.center.data(),
                 s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * d);
  LabelBackend(state);
}
BENCHMARK(BM_DistStrip)->ArgsProduct({{8, 32}, {0, 1}});

void BM_QuadFormStrip(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 24);
  la::Matrix a = RandomMatrix(d, d, 25);
  // diff is d x rows row-major, like the GMM E-step's centered strip.
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.quadform_strip(s.data.data(), d, kStripRows, a.data(), d,
                     s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * d * d);
  LabelBackend(state);
}
BENCHMARK(BM_QuadFormStrip)->ArgsProduct({{8, 32}, {0, 1}});

// The gemm_strip benches take (d, simd, nh). nh=16 fills the kernel's
// 4-row and 2-row tiles exactly; nh=50 with d=20 is the s_nn_epochs
// geometry, which leaves 2 rows per 4-row tile and 2 columns per 3-column
// dot tile, so the remainder tiles are timed too.
void BM_GemmStrip(benchmark::State& state) {
  // The NN first-layer forward shape: C(nh x rows) = W1(nh x d) * strip.
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t nh = static_cast<size_t>(state.range(2));
  StripData s(d, kStripRows, 26, nh);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.gemm_strip(s.w1.data(), d, s.data.data(), kStripRows, nh, kStripRows,
                 d, s.ct.data(), kStripRows, /*trans_b=*/false,
                 /*accumulate=*/false);
    benchmark::DoNotOptimize(s.ct.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * nh * d);
  LabelBackend(state);
}
BENCHMARK(BM_GemmStrip)
    ->ArgsProduct({{8, 32}, {0, 1}, {kNh}})
    ->ArgsProduct({{20}, {0, 1}, {50}});

void BM_GemmStripT(benchmark::State& state) {
  // The NN backward shape: G(nh x d) += delta^T(nh x rows) * strip^T.
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t nh = static_cast<size_t>(state.range(2));
  StripData s(d, kStripRows, 27, nh);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.gemm_strip(s.ct.data(), kStripRows, s.data.data(), kStripRows, nh, d,
                 kStripRows, s.grad.data(), d, /*trans_b=*/true,
                 /*accumulate=*/true);
    benchmark::DoNotOptimize(s.grad.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * nh * d);
  LabelBackend(state);
}
BENCHMARK(BM_GemmStripT)
    ->ArgsProduct({{8, 32}, {0, 1}, {kNh}})
    ->ArgsProduct({{20}, {0, 1}, {50}});

void BM_GatherAddRowsStrip(benchmark::State& state) {
  // The factorized NN partial-cache gather over an FK1 rid column.
  StripData s(8, kStripRows, 28);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.gather_add_rows_strip(s.base.data(), kNh, s.idx.data(), kStripRows,
                            kNh, s.gout.data(), kNh);
    benchmark::DoNotOptimize(s.gout.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * kNh);
  LabelBackend(state);
}
BENCHMARK(BM_GatherAddRowsStrip)->ArgsProduct({{8}, {0, 1}});

void BM_ScatterAddStrip(benchmark::State& state) {
  // The GMM/k-means per-rid mass scatter over an FK1 rid column.
  StripData s(8, kStripRows, 29);
  std::vector<double> acc(kGatherRows, 0.0);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.scatter_add_strip(s.idx.data(), s.w.data(), kStripRows, acc.data());
    benchmark::DoNotOptimize(acc.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows);
  LabelBackend(state);
}
BENCHMARK(BM_ScatterAddStrip)->ArgsProduct({{8}, {0, 1}});

void BM_ActivationStrip(benchmark::State& state) {
  // The NN upper layers' element-wise activation over one strip's
  // nh x rows activation block; arg 0 = la::ActKind (0 sigmoid, 1 tanh).
  StripData s(8, kStripRows, 30);
  const auto kind = static_cast<la::ActKind>(state.range(0));
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.activation(kind, s.ct.data(), s.gout.data(), kNh * kStripRows);
    benchmark::DoNotOptimize(s.gout.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * kNh);
  LabelBackend(state);
}
BENCHMARK(BM_ActivationStrip)->ArgsProduct({{0, 1}, {0, 1}});

}  // namespace

// ---------------------------------------------------------------------
// --json=PATH roofline sweep (the BENCH_kernels.json CI artifact): times
// every kernel of both tables on one strip at d in {8, 32}, and records
// achieved GFLOP/s and effective GB/s next to the resolved backend and
// CPU features — enough to place each kernel against the machine's
// compute/bandwidth ceilings and track the scalar/simd ratio over time.

void WriteKernelRoofline(const std::string& path) {
  constexpr size_t kRows = kStripRows;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --json=%s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  bool first = true;
  for (const size_t d : {size_t{8}, size_t{32}}) {
    StripData s(d, kRows, 31);
    std::vector<double> gram(d * d, 0.0);
    la::Matrix a = RandomMatrix(d, d, 32);
    std::vector<double> y(d, 0.0);
    struct Cell {
      const char* kernel;
      uint64_t flops, bytes;  // per call
      void (*run)(const la::Kernels&, StripData&, std::vector<double>&,
                  const la::Matrix&, std::vector<double>&, size_t);
    };
    const Cell cells[] = {
        {"syrk_strip", 2 * kRows * d * d + 2 * kRows * d,
         (d * kRows + kRows + 2 * d * d) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>& gram,
            const la::Matrix&, std::vector<double>&, size_t d) {
           k.syrk_strip(s.cols.data(), d, kRows, s.w.data(), gram.data(),
                        d);
         }},
        {"col_dot_strip", 2 * kRows * d, (d * kRows + d + kRows) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t d) {
           k.col_dot_strip(s.cols.data(), d, kRows, s.v.data(),
                           s.out.data());
         }},
        {"colsum_strip", 2 * kRows * d, (d * kRows + kRows + 2 * d) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>& acc, size_t d) {
           k.colsum_strip(s.cols.data(), d, kRows, s.w.data(), acc.data());
         }},
        {"dist_strip", 3 * kRows * d, (d * kRows + d + kRows) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t d) {
           k.dist_strip(s.cols.data(), d, kRows, s.center.data(),
                        s.out.data());
         }},
        {"quadform_strip", 2 * kRows * (d * d + d),
         (d * kRows + d * d * 8 + kRows) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix& a, std::vector<double>&, size_t d) {
           k.quadform_strip(s.data.data(), d, kRows, a.data(), d,
                            s.out.data());
         }},
        {"gemm_strip", 2 * kRows * kNh * d,
         (d * kRows + kNh * d + kNh * kRows) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t d) {
           k.gemm_strip(s.w1.data(), d, s.data.data(), kRows, kNh, kRows, d,
                        s.ct.data(), kRows, /*trans_b=*/false,
                        /*accumulate=*/false);
         }},
        {"gemm_strip_t", 2 * kRows * kNh * d,
         (d * kRows + kNh * kRows + 2 * kNh * d) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t d) {
           k.gemm_strip(s.ct.data(), kRows, s.data.data(), kRows, kNh, d,
                        kRows, s.grad.data(), d, /*trans_b=*/true,
                        /*accumulate=*/true);
         }},
        {"gather_add_rows_strip", kRows * kNh,
         (2 * kRows * kNh * 8 + kRows * kNh * 8 + kRows * 8),
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t) {
           k.gather_add_rows_strip(s.base.data(), kNh, s.idx.data(), kRows,
                                   kNh, s.gout.data(), kNh);
         }},
        // One sigmoid per element of an nh x rows activation block: the
        // "gflops" of this row are billions of activations per second.
        {"activation", kRows * kNh, 2 * kRows * kNh * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t) {
           k.activation(la::ActKind::kSigmoid, s.ct.data(), s.gout.data(),
                        kRows * kNh);
         }},
        {"scatter_add_strip", kRows,
         (kRows * 8 + kRows * 8 + 2 * kRows * 8),
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t) {
           k.scatter_add_strip(s.idx.data(), s.w.data(), kRows,
                               s.gout.data());
         }},
    };
    for (const auto mode : {la::KernelMode::kScalar, la::KernelMode::kSimd}) {
      la::SelectKernels(mode);
      const la::Kernels& k = la::Active();
      for (const Cell& cell : cells) {
        // Reps sized so every cell runs ~2*10^8 inner-loop flops.
        const int reps = static_cast<int>(
            std::max<uint64_t>(100, 200'000'000 / cell.flops));
        cell.run(k, s, gram, a, y, d);  // warm-up (and page-in)
        Stopwatch sw;
        for (int i = 0; i < reps; ++i) cell.run(k, s, gram, a, y, d);
        const double secs = sw.ElapsedSeconds();
        const double gflops =
            static_cast<double>(cell.flops) * reps / secs * 1e-9;
        const double gbps =
            static_cast<double>(cell.bytes) * reps / secs * 1e-9;
        std::fprintf(
            f,
            "%s  {\"bench\": \"micro_kernels\", \"section\": \"roofline\","
            " \"kernel\": \"%s\", \"backend\": \"%s\", \"d\": %zu,"
            " \"rows\": %zu, \"reps\": %d, \"seconds\": %.6f,"
            " \"gflops\": %.3f, \"gbytes_per_sec\": %.3f,"
            " \"cpu_features\": \"%s\", \"git_describe\": \"%s\"}",
            first ? "" : ",\n", cell.kernel, k.name, d, kRows, reps, secs,
            gflops, gbps, la::CpuFeatures().c_str(), obs::GitDescribe());
        first = false;
      }
    }
    la::SelectKernels(la::KernelMode::kScalar);
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
  std::printf("wrote kernel roofline to %s\n", path.c_str());
}

}  // namespace factorml

int main(int argc, char** argv) {
  // Peel --json=PATH off before google-benchmark parses the rest (it
  // rejects flags it does not own).
  std::string json_path;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) factorml::WriteKernelRoofline(json_path);
  return 0;
}
