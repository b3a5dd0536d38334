#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/opcount.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "la/cholesky.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/ops.h"
#include "nn/activation.h"
#include "test_util.h"

namespace factorml::la {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

/// Random symmetric positive-definite matrix A = B B^T + n*I.
Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix b = RandomMatrix(n, n, rng);
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < n; ++p) s += b(i, p) * b(j, p);
      a(i, j) = s;
    }
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, RowSpanAliasesStorage) {
  Matrix m(3, 4);
  auto row = m.Row(1);
  row[2] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  EXPECT_EQ(row.size(), 4u);
}

TEST(MatrixTest, ScaleAddFill) {
  Matrix a(2, 2);
  a.Fill(2.0);
  a.Scale(3.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 6.0);
  Matrix b(2, 2);
  b.Fill(1.0);
  a.Add(b);
  EXPECT_DOUBLE_EQ(a(0, 0), 7.0);
  a.SetZero();
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(MatrixTest, TransposedAndIdentity) {
  Matrix m(2, 3);
  m(0, 1) = 4.0;
  m(1, 2) = -1.0;
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(t(2, 1), -1.0);
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 2), 0.0);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  a(0, 1) = 1.0;
  b(0, 1) = 1.5;
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a, a), 0.0);
}

TEST(MatrixTest, ResizeZeroFills) {
  Matrix m(1, 1);
  m(0, 0) = 9.0;
  m.Resize(2, 2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

// ------------------------------------------------------------------ Ops

TEST(OpsTest, DotAndAxpy) {
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b, 3), 32.0);
  double y[] = {1.0, 1.0, 1.0};
  Axpy(2.0, a, y, 3);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 7.0);
}

TEST(OpsTest, GemvMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const double x[] = {1.0, 0.0, -1.0};
  double y[2];
  Gemv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(OpsTest, BilinearSubBlock) {
  // A 4x4 with a known 2x2 block at (1,2).
  Matrix a(4, 4);
  a(1, 2) = 1.0;
  a(1, 3) = 2.0;
  a(2, 2) = 3.0;
  a(2, 3) = 4.0;
  const double u[] = {1.0, 1.0};
  const double v[] = {1.0, -1.0};
  // u^T [[1,2],[3,4]] v = (1+3)*1 + (2+4)*(-1) = -2.
  EXPECT_DOUBLE_EQ(Bilinear(a, 1, 2, u, 2, v, 2), -2.0);
}

TEST(OpsTest, QuadFormEqualsFullBilinear) {
  Rng rng(3);
  Matrix a = RandomSpd(5, &rng);
  std::vector<double> x(5);
  for (auto& v : x) v = rng.NextGaussian();
  double manual = 0.0;
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) manual += x[i] * a(i, j) * x[j];
  }
  EXPECT_NEAR(QuadForm(a, x.data(), 5), manual, 1e-10);
}

TEST(OpsTest, GemmNTMatchesNaive) {
  Rng rng(4);
  Matrix x = RandomMatrix(3, 5, &rng);
  Matrix w = RandomMatrix(4, 5, &rng);
  Matrix c;
  GemmNT(x, w, &c, false);
  ASSERT_EQ(c.rows(), 3u);
  ASSERT_EQ(c.cols(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < 5; ++p) s += x(i, p) * w(j, p);
      EXPECT_NEAR(c(i, j), s, 1e-12);
    }
  }
}

TEST(OpsTest, GemmNTAccumulates) {
  Rng rng(5);
  Matrix x = RandomMatrix(2, 3, &rng);
  Matrix w = RandomMatrix(2, 3, &rng);
  Matrix c(2, 2);
  c.Fill(1.0);
  GemmNT(x, w, &c, true);
  Matrix fresh;
  GemmNT(x, w, &fresh, false);
  EXPECT_NEAR(c(1, 1), fresh(1, 1) + 1.0, 1e-12);
}

TEST(OpsTest, GemmNNMatchesNaive) {
  Rng rng(6);
  Matrix a = RandomMatrix(3, 4, &rng);
  Matrix b = RandomMatrix(4, 2, &rng);
  Matrix c;
  GemmNN(a, b, &c, false);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < 4; ++p) s += a(i, p) * b(p, j);
      EXPECT_NEAR(c(i, j), s, 1e-12);
    }
  }
}

TEST(OpsTest, GemmNTSliceUsesColumnWindow) {
  Rng rng(7);
  Matrix x = RandomMatrix(3, 2, &rng);   // k=2
  Matrix w = RandomMatrix(4, 6, &rng);   // slice cols [3,5)
  Matrix c;
  GemmNTSlice(x, w, 3, &c, false);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < 2; ++p) s += x(i, p) * w(j, 3 + p);
      EXPECT_NEAR(c(i, j), s, 1e-12);
    }
  }
}

TEST(OpsTest, GemmTNMatchesNaive) {
  Rng rng(8);
  Matrix d = RandomMatrix(5, 3, &rng);
  Matrix x = RandomMatrix(5, 2, &rng);
  Matrix g;
  GemmTN(d, x, &g, false);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      double s = 0.0;
      for (size_t r = 0; r < 5; ++r) s += d(r, i) * x(r, j);
      EXPECT_NEAR(g(i, j), s, 1e-12);
    }
  }
}

TEST(OpsTest, GemmTNSliceWritesColumnWindow) {
  Rng rng(9);
  Matrix d = RandomMatrix(4, 3, &rng);
  Matrix x = RandomMatrix(4, 2, &rng);
  Matrix g(3, 6);
  g.Fill(0.5);
  GemmTNSlice(d, x, &g, 4);
  Matrix ref;
  GemmTN(d, x, &ref, false);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(g(i, 4), 0.5 + ref(i, 0), 1e-12);
    EXPECT_NEAR(g(i, 5), 0.5 + ref(i, 1), 1e-12);
    EXPECT_DOUBLE_EQ(g(i, 0), 0.5);  // untouched columns
  }
}

TEST(OpsTest, AddOuterIntoBlock) {
  Matrix a(4, 4);
  const double u[] = {1.0, 2.0};
  const double v[] = {3.0, 4.0};
  AddOuter(2.0, u, 2, v, 2, &a, 1, 2);
  EXPECT_DOUBLE_EQ(a(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(a(1, 3), 8.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 12.0);
  EXPECT_DOUBLE_EQ(a(2, 3), 16.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
}

TEST(OpsTest, AddRowVector) {
  Matrix x(2, 3);
  const double b[] = {1.0, 2.0, 3.0};
  AddRowVector(b, &x);
  AddRowVector(b, &x);
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(x(1, 2), 6.0);
}

// ------------------------------------------------------------- Cholesky

class CholeskySizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskySizeTest, FactorReconstructsMatrix) {
  Rng rng(100 + GetParam());
  const size_t n = GetParam();
  Matrix a = RandomSpd(n, &rng);
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  const Matrix& l = chol.lower();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < n; ++p) s += l(i, p) * l(j, p);
      EXPECT_NEAR(s, a(i, j), 1e-8) << "at " << i << "," << j;
    }
  }
}

TEST_P(CholeskySizeTest, SolveSatisfiesSystem) {
  Rng rng(200 + GetParam());
  const size_t n = GetParam();
  Matrix a = RandomSpd(n, &rng);
  std::vector<double> b(n), x(n), ax(n);
  for (auto& v : b) v = rng.NextGaussian();
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  chol.Solve(b.data(), x.data());
  Gemv(a, x.data(), ax.data());
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-7);
}

TEST_P(CholeskySizeTest, InverseTimesMatrixIsIdentity) {
  Rng rng(300 + GetParam());
  const size_t n = GetParam();
  Matrix a = RandomSpd(n, &rng);
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  Matrix inv = chol.Inverse();
  Matrix prod;
  GemmNN(a, inv, &prod, false);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-7);
    }
  }
}

TEST_P(CholeskySizeTest, LogDetMatchesDiagonalProduct) {
  Rng rng(400 + GetParam());
  const size_t n = GetParam();
  Matrix a = RandomSpd(n, &rng);
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  double ld = 0.0;
  for (size_t i = 0; i < n; ++i) ld += 2.0 * std::log(chol.lower()(i, i));
  EXPECT_NEAR(chol.LogDet(), ld, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(CholeskyTest, RejectsNonSquare) {
  Cholesky chol;
  EXPECT_EQ(chol.Factor(Matrix(2, 3)).code(),
            StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  Cholesky chol;
  EXPECT_EQ(chol.Factor(a).code(), StatusCode::kFailedPrecondition);
}

TEST(CholeskyTest, JitterRecoversNearSingular) {
  // Rank-deficient PSD matrix: outer product of one vector.
  Matrix a(3, 3);
  const double v[] = {1.0, 2.0, 3.0};
  AddOuter(1.0, v, 3, v, 3, &a, 0, 0);
  Cholesky chol;
  EXPECT_FALSE(chol.Factor(a).ok());
  FML_EXPECT_OK(chol.FactorWithJitter(a));
  EXPECT_TRUE(chol.factored());
}

TEST(CholeskyTest, MultiplyLowerSamplesCovariance) {
  Rng rng(55);
  Matrix a = RandomSpd(3, &rng);
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  // y = L z with z = e0 gives the first column of L.
  const double z[] = {1.0, 0.0, 0.0};
  double y[3];
  chol.MultiplyLower(z, y);
  EXPECT_NEAR(y[0], chol.lower()(0, 0), 1e-12);
  EXPECT_NEAR(y[1], chol.lower()(1, 0), 1e-12);
  EXPECT_NEAR(y[2], chol.lower()(2, 0), 1e-12);
}

// Property: the factorized quadratic-form decomposition used by F-GMM is
// exact — sum of block bilinears equals the full quadratic form.
class BlockDecompositionTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(BlockDecompositionTest, BlocksSumToFullQuadForm) {
  const size_t ds = std::get<0>(GetParam());
  const size_t dr = std::get<1>(GetParam());
  const size_t d = ds + dr;
  Rng rng(1000 + ds * 13 + dr);
  Matrix a = RandomSpd(d, &rng);
  std::vector<double> x(d);
  for (auto& v : x) v = rng.NextGaussian();
  const double full = QuadForm(a, x.data(), d);
  const double* xs = x.data();
  const double* xr = x.data() + ds;
  // Eq. 9-12: UL + UR + LL + LR.
  const double ul = Bilinear(a, 0, 0, xs, ds, xs, ds);
  const double ur = Bilinear(a, 0, ds, xs, ds, xr, dr);
  const double ll = Bilinear(a, ds, 0, xr, dr, xs, ds);
  const double lr = Bilinear(a, ds, ds, xr, dr, xr, dr);
  EXPECT_NEAR(ul + ur + ll + lr, full, 1e-9 * (1.0 + std::fabs(full)));
}

INSTANTIATE_TEST_SUITE_P(
    Splits, BlockDecompositionTest,
    ::testing::Combine(::testing::Values(1, 3, 5, 8),
                       ::testing::Values(1, 2, 7, 15)));

// Property sweep: the gemm variants must agree with each other under
// transposition for arbitrary shapes (C = A*B  <=>  C = A*(B^T)^T etc.).
class GemmConsistencyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(GemmConsistencyTest, VariantsAgree) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 131 + k * 17 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(k, n, &rng);

  Matrix c_nn;
  GemmNN(a, b, &c_nn, false);

  // GemmNT with B transposed gives the same product.
  Matrix bt = b.Transposed();
  Matrix c_nt;
  GemmNT(a, bt, &c_nt, false);
  EXPECT_LT(Matrix::MaxAbsDiff(c_nn, c_nt), 1e-10);

  // GemmTN with A transposed gives the same product.
  Matrix at = a.Transposed();
  Matrix c_tn;
  GemmTN(at, b, &c_tn, false);
  EXPECT_LT(Matrix::MaxAbsDiff(c_nn, c_tn), 1e-10);

  // Slice kernels with a zero offset reduce to the full kernels.
  Matrix c_slice;
  GemmNTSlice(a, bt, 0, &c_slice, false);
  EXPECT_LT(Matrix::MaxAbsDiff(c_nn, c_slice), 1e-10);
  Matrix g(a.rows(), b.cols());
  GemmTNSlice(at, b, &g, 0);
  EXPECT_LT(Matrix::MaxAbsDiff(c_nn, g), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmConsistencyTest,
    ::testing::Combine(::testing::Values(1, 3, 17),
                       ::testing::Values(1, 8, 31),
                       ::testing::Values(1, 5, 16)));

// Property: outer-product accumulation distributes over scaling, the
// identity F-GMM's deferred diagonal blocks rely on:
//   sum_i g_i * (v v^T) == (sum_i g_i) * (v v^T).
TEST(OpsTest, ScaledOuterAccumulationIsLinear) {
  Rng rng(77);
  const size_t d = 6;
  std::vector<double> v(d);
  for (auto& x : v) x = rng.NextGaussian();
  Matrix per_row(d, d), grouped(d, d);
  double gsum = 0.0;
  for (int i = 0; i < 25; ++i) {
    const double g = rng.NextDouble();
    AddOuter(g, v.data(), d, v.data(), d, &per_row, 0, 0);
    gsum += g;
  }
  AddOuter(gsum, v.data(), d, v.data(), d, &grouped, 0, 0);
  EXPECT_LT(Matrix::MaxAbsDiff(per_row, grouped), 1e-10);
}


// --------------------------------------------------------- kernel plane

/// RAII: selects a kernel backend for the test body, restores scalar.
struct ScopedKernels {
  explicit ScopedKernels(KernelMode mode) { SelectKernels(mode); }
  ~ScopedKernels() { SelectKernels(KernelMode::kScalar); }
};

/// Random strip: d columns of `rows` doubles plus the pointer array the
/// strip kernels take.
struct TestStrip {
  TestStrip(size_t d, size_t rows, Rng* rng) : data(d * rows), cols(d) {
    for (auto& v : data) v = rng->NextGaussian();
    for (size_t j = 0; j < d; ++j) cols[j] = data.data() + j * rows;
  }
  std::vector<double> data;
  std::vector<const double*> cols;
};

TEST(KernelsTest, SelectSwapsActiveTableAndRestores) {
  EXPECT_FALSE(Active().simd);
  EXPECT_STREQ(Active().name, "scalar");
  {
    ScopedKernels simd(KernelMode::kSimd);
    EXPECT_TRUE(Active().simd);
    EXPECT_STREQ(Active().name, SimdBackendName());
  }
  EXPECT_FALSE(Active().simd);
  EXPECT_FALSE(CpuFeatures().empty());
}

TEST(KernelsTest, SimdPrimitivesMatchScalarToTolerance) {
  Rng rng(7);
  const size_t n = 97;  // unaligned on purpose: exercises vector tails
  std::vector<double> a(n), b(n), y_s(n, 0.5), y_v(y_s);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextGaussian();
    b[i] = rng.NextGaussian();
  }
  const Kernels& scalar = Active();
  SelectKernels(KernelMode::kSimd);
  const Kernels& simd = Active();
  SelectKernels(KernelMode::kScalar);

  EXPECT_NEAR(scalar.dot(a.data(), b.data(), n),
              simd.dot(a.data(), b.data(), n), 1e-12);
  scalar.axpy(0.75, a.data(), y_s.data(), n);
  simd.axpy(0.75, a.data(), y_v.data(), n);
  for (size_t i = 0; i < n; ++i) ASSERT_NEAR(y_s[i], y_v[i], 1e-12);

  const size_t m = 13;
  Matrix mat = RandomMatrix(m, n, &rng);
  std::vector<double> g_s(m, 0.0), g_v(m, 0.0);
  scalar.gemv(mat.data(), m, n, a.data(), g_s.data());
  simd.gemv(mat.data(), m, n, a.data(), g_v.data());
  for (size_t i = 0; i < m; ++i) ASSERT_NEAR(g_s[i], g_v[i], 1e-10);

  Matrix sq = RandomMatrix(n, n, &rng);
  EXPECT_NEAR(scalar.bilinear(sq.data(), n, a.data(), n, b.data(), n),
              simd.bilinear(sq.data(), n, a.data(), n, b.data(), n), 1e-9);

  Matrix o_s(m, n), o_v(m, n);
  scalar.add_outer(1.25, a.data(), m, b.data(), n, o_s.data(), n);
  simd.add_outer(1.25, a.data(), m, b.data(), n, o_v.data(), n);
  EXPECT_LT(Matrix::MaxAbsDiff(o_s, o_v), 1e-12);
}

TEST(KernelsTest, StripKernelsMatchScalarToTolerance) {
  Rng rng(11);
  const size_t d = 7, rows = 203;  // short tail after the 4-wide lanes
  TestStrip strip(d, rows, &rng);
  std::vector<double> w(rows);
  for (auto& v : w) v = rng.NextUniform(0.25, 1.25);
  const Kernels& scalar = Active();
  SelectKernels(KernelMode::kSimd);
  const Kernels& simd = Active();
  SelectKernels(KernelMode::kScalar);

  const double* weight_opts[] = {nullptr, w.data()};
  for (const double* weights : weight_opts) {
    Matrix g_s(d, d), g_v(d, d);
    scalar.syrk_strip(strip.cols.data(), d, rows, weights, g_s.data(), d);
    simd.syrk_strip(strip.cols.data(), d, rows, weights, g_v.data(), d);
    EXPECT_LT(Matrix::MaxAbsDiff(g_s, g_v), 1e-9);
    // The vector backend mirrors the upper triangle: exact symmetry.
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) ASSERT_EQ(g_v(i, j), g_v(j, i));
    }
  }

  std::vector<double> v(d), out_s(rows), out_v(rows);
  for (auto& x : v) x = rng.NextGaussian();
  scalar.col_dot_strip(strip.cols.data(), d, rows, v.data(), out_s.data());
  simd.col_dot_strip(strip.cols.data(), d, rows, v.data(), out_v.data());
  for (size_t r = 0; r < rows; ++r) ASSERT_NEAR(out_s[r], out_v[r], 1e-10);

  std::vector<double> acc_s(d, 0.0), acc_v(d, 0.0);
  scalar.colsum_strip(strip.cols.data(), d, rows, w.data(), acc_s.data());
  simd.colsum_strip(strip.cols.data(), d, rows, w.data(), acc_v.data());
  for (size_t j = 0; j < d; ++j) ASSERT_NEAR(acc_s[j], acc_v[j], 1e-9);

  scalar.dist_strip(strip.cols.data(), d, rows, v.data(), out_s.data());
  simd.dist_strip(strip.cols.data(), d, rows, v.data(), out_v.data());
  for (size_t r = 0; r < rows; ++r) ASSERT_NEAR(out_s[r], out_v[r], 1e-10);

  // quadform takes the centered strip as one d x rows block.
  Matrix a = RandomMatrix(d, d, &rng);
  scalar.quadform_strip(strip.data.data(), d, rows, a.data(), d,
                        out_s.data());
  simd.quadform_strip(strip.data.data(), d, rows, a.data(), d,
                      out_v.data());
  for (size_t r = 0; r < rows; ++r) ASSERT_NEAR(out_s[r], out_v[r], 1e-9);
}

/// RAII: pins FACTORML_KERNELS_BACKEND for the test body (nullptr =
/// unset), then restores whatever the ambient environment had — CI's
/// forced-portable job exports the variable job-wide, so tests must not
/// leak their own value over it.
struct ScopedBackendEnv {
  explicit ScopedBackendEnv(const char* v) {
    const char* prev = std::getenv("FACTORML_KERNELS_BACKEND");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (v != nullptr) {
      setenv("FACTORML_KERNELS_BACKEND", v, /*overwrite=*/1);
    } else {
      unsetenv("FACTORML_KERNELS_BACKEND");
    }
  }
  ~ScopedBackendEnv() {
    if (had_prev_) {
      setenv("FACTORML_KERNELS_BACKEND", prev_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("FACTORML_KERNELS_BACKEND");
    }
  }
  std::string prev_;
  bool had_prev_ = false;
};

TEST(KernelsTest, GemmStripMatchesNaiveOnEveryBackend) {
  Rng rng(17);
  const size_t m = 9, n = 203, k = 7;  // n has a short vector tail
  Matrix a = RandomMatrix(m, k, &rng);
  std::vector<double> b(k * n);  // k rows of n contiguous doubles
  for (auto& v : b) v = rng.NextGaussian();
  // Naive references for both operand shapes.
  Matrix ref_nn(m, n), ref_nt(m, k);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += a(i, p) * b[p * n + j];
      ref_nn(i, j) = s;
    }
  }
  // trans_b: C(m x k) = A(m x n') * B(k x n')^T with n' = n, reusing b as
  // a k x n block read row-wise.
  Matrix a2 = RandomMatrix(m, n, &rng);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < n; ++p) s += a2(i, p) * b[j * n + p];
      ref_nt(i, j) = s;
    }
  }
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    Matrix c(m, n);
    c.Fill(0.25);  // accumulate == false must overwrite this
    kern.gemm_strip(a.data(), k, b.data(), n, m, n, k, c.data(), n,
                    /*trans_b=*/false, /*accumulate=*/false);
    EXPECT_LT(Matrix::MaxAbsDiff(c, ref_nn), 1e-9);
    kern.gemm_strip(a.data(), k, b.data(), n, m, n, k, c.data(), n,
                    /*trans_b=*/false, /*accumulate=*/true);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        ASSERT_NEAR(c(i, j), 2.0 * ref_nn(i, j), 1e-8);
      }
    }
    Matrix ct(m, k);
    ct.Fill(0.0);
    kern.gemm_strip(a2.data(), n, b.data(), n, m, k, n, ct.data(), k,
                    /*trans_b=*/true, /*accumulate=*/true);
    EXPECT_LT(Matrix::MaxAbsDiff(ct, ref_nt), 1e-8);
  }
}

/// The row-at-a-time gemm_strip loops the register-blocked kernel
/// replaced, spelled with the backend's own Dot / Axpy: the summation
/// order every output element must keep.
void ReferenceGemmStrip(const Kernels& kern, const double* a, size_t lda,
                        const double* b, size_t ldb, size_t m, size_t n,
                        size_t k, double* c, size_t ldc, bool trans_b,
                        bool accumulate) {
  for (size_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    if (!accumulate) std::fill(ci, ci + n, 0.0);
    if (trans_b) {
      for (size_t j = 0; j < n; ++j) ci[j] += kern.dot(ai, b + j * ldb, k);
    } else {
      for (size_t p = 0; p < k; ++p) kern.axpy(ai[p], b + p * ldb, ci, n);
    }
  }
}

/// Runs gemm_strip and the reference on copies of `c0` and requires the
/// two C buffers (padding columns included) to be memcmp-equal.
void ExpectGemmStripBitEqual(const Kernels& kern, const std::vector<double>& a,
                             size_t lda, const std::vector<double>& b,
                             size_t ldb, size_t m, size_t n, size_t k,
                             const std::vector<double>& c0, size_t ldc,
                             bool trans_b, bool accumulate,
                             std::vector<double>* out = nullptr) {
  std::vector<double> got = c0, want = c0;
  kern.gemm_strip(a.data(), lda, b.data(), ldb, m, n, k, got.data(), ldc,
                  trans_b, accumulate);
  ReferenceGemmStrip(kern, a.data(), lda, b.data(), ldb, m, n, k,
                     want.data(), ldc, trans_b, accumulate);
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(double)))
      << "m=" << m << " n=" << n << " k=" << k << " trans_b=" << trans_b
      << " accumulate=" << accumulate;
  if (out != nullptr) *out = got;
}

TEST(KernelsTest, GemmStripBlockedBitEqualToReferenceLoops) {
  // Every tile shape and remainder of both forms: m covers whole 4-row
  // and 2-row tiles plus each leftover count, n every column panel width
  // and tail, k Dot's 8-stride body, its 4-step tail and its scalar tail.
  Rng rng(29);
  for (const char* backend : {"portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    for (size_t m : {1, 2, 3, 4, 5, 50}) {
      for (size_t n : {1, 3, 4, 11, 12, 13, 203, 256}) {
        for (size_t k : {1, 3, 4, 7, 8, 9, 20, 256}) {
          for (bool trans_b : {false, true}) {
            // Leading dimensions past the logical widths, so a tile that
            // strays into the padding shows up in the memcmp.
            const size_t lda = k + 1, ldc = n + 3;
            const size_t b_rows = trans_b ? n : k;
            const size_t ldb = (trans_b ? k : n) + 2;
            std::vector<double> a(m * lda), b(b_rows * ldb);
            for (auto& v : a) v = rng.NextGaussian();
            for (auto& v : b) v = rng.NextGaussian();
            const std::vector<double> c0(m * ldc, 0.25);
            for (bool accumulate : {false, true}) {
              ExpectGemmStripBitEqual(kern, a, lda, b, ldb, m, n, k, c0, ldc,
                                      trans_b, accumulate);
            }
          }
        }
      }
    }
  }
}

TEST(KernelsTest, GemmStripBlockedKeepsSignedZeroAndNaN) {
  // Row 0 of A is all -0.0 against positive B, so its products are -0.0:
  // the axpy form must start overwrite from +0.0 (0.0 + -0.0 = +0.0) and
  // accumulate from C's -0.0 (-0.0 + -0.0 = -0.0); the dot form adds
  // Dot's +0.0 (its accumulators start at +0.0) to either. One NaN in A
  // poisons its row and one NaN in B its column, in both forms.
  const size_t m = 5, n = 13, k = 9;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(31);
  for (const char* backend : {"portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    for (bool trans_b : {false, true}) {
      const size_t lda = k, ldb = trans_b ? k : n, ldc = n;
      std::vector<double> a(m * lda), b((trans_b ? n : k) * ldb);
      for (auto& v : a) v = rng.NextUniform(0.5, 1.5);
      for (auto& v : b) v = rng.NextUniform(0.5, 1.5);
      for (size_t p = 0; p < k; ++p) a[p] = -0.0;
      a[2 * lda + 1] = nan;
      b[trans_b ? 5 * ldb + 3 : 3 * ldb + 5] = nan;
      const std::vector<double> c0(m * ldc, -0.0);
      for (bool accumulate : {false, true}) {
        SCOPED_TRACE(accumulate ? "accumulate" : "overwrite");
        std::vector<double> c;
        ExpectGemmStripBitEqual(kern, a, lda, b, ldb, m, n, k, c0, ldc,
                                trans_b, accumulate, &c);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            const double v = c[i * ldc + j];
            if (i == 2 || j == 5) {
              EXPECT_TRUE(std::isnan(v)) << i << "," << j;
            } else if (i == 0) {
              EXPECT_EQ(v, 0.0) << j;
              EXPECT_EQ(std::signbit(v), accumulate && !trans_b) << j;
            } else {
              EXPECT_GT(v, 0.0) << i << "," << j;
            }
          }
        }
      }
    }
  }
}

TEST(KernelsTest, GatherScatterStripKernelsBitEqualOnEveryBackend) {
  // The rid-indexed kernels stay scalar row loops in every backend (no
  // lane reassociation), so their outputs are bit-equal — including
  // duplicate scatter indices, which must accumulate in row order.
  Rng rng(23);
  const size_t rows = 203, n = 5, base_rows = 17;
  std::vector<int64_t> idx(rows);
  for (auto& v : idx) {
    v = static_cast<int64_t>(rng.NextUniform(0.0, 1.0) * base_rows);
    if (v >= static_cast<int64_t>(base_rows)) v = base_rows - 1;
  }
  Matrix base = RandomMatrix(base_rows, n, &rng);
  std::vector<double> src(base_rows), w(rows);
  for (auto& v : src) v = rng.NextGaussian();
  for (auto& v : w) v = rng.NextUniform(0.25, 1.25);

  Matrix ref_rows(rows, n);
  std::vector<double> ref_el(rows, 0.5), ref_acc(base_rows, 0.0);
  std::vector<double> ref_acc_unit(base_rows, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    const auto br = static_cast<size_t>(idx[r]);
    for (size_t j = 0; j < n; ++j) ref_rows(r, j) = base(br, j);
    ref_el[r] += src[br];
    ref_acc[br] += w[r];
    ref_acc_unit[br] += 1.0;
  }
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    Matrix out(rows, n);
    out.Fill(0.0);
    kern.gather_add_rows_strip(base.data(), n, idx.data(), rows, n,
                               out.data(), n);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < n; ++j) ASSERT_EQ(out(r, j), ref_rows(r, j));
    }
    std::vector<double> el(rows, 0.5);
    kern.gather_add_strip(src.data(), idx.data(), rows, el.data());
    for (size_t r = 0; r < rows; ++r) ASSERT_EQ(el[r], ref_el[r]);
    std::vector<double> acc(base_rows, 0.0);
    kern.scatter_add_strip(idx.data(), w.data(), rows, acc.data());
    for (size_t i = 0; i < base_rows; ++i) ASSERT_EQ(acc[i], ref_acc[i]);
    std::fill(acc.begin(), acc.end(), 0.0);
    kern.scatter_add_strip(idx.data(), /*w=*/nullptr, rows, acc.data());
    for (size_t i = 0; i < base_rows; ++i) {
      ASSERT_EQ(acc[i], ref_acc_unit[i]);
    }
  }
}

/// Distance in representable doubles between two finite-or-infinite
/// values of the same sign class (0 when equal, -0 == +0).
int64_t UlpDistance(double a, double b) {
  const auto ordered = [](double x) {
    int64_t i;
    std::memcpy(&i, &x, sizeof(i));
    return i < 0 ? std::numeric_limits<int64_t>::min() - i : i;
  };
  const int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

TEST(KernelsTest, ActivationKernelAccuracyOnEveryBackend) {
  // The sweep: |x| <= 800 (past both ends of exp's finite range), a fine
  // grid around 0 where tanh switches form, the subnormal and overflow
  // edges of exp, tiny magnitudes, and the signed zeros and infinities.
  std::vector<double> x;
  for (double v = -800.0; v <= 800.0; v += 0.0137) x.push_back(v);
  for (double v = -2.0; v <= 2.0; v += 1.3e-4) x.push_back(v);
  for (double v = -746.0; v <= -700.0; v += 1.1e-3) x.push_back(v);
  for (double v = 700.0; v <= 710.0; v += 1.1e-4) x.push_back(v);
  for (double v = 1e-300; v < 1.0; v *= 1.37) {
    x.push_back(v);
    x.push_back(-v);
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {0.0, -0.0, inf, -inf, 709.782712893384,
                         std::nextafter(709.782712893384, inf),
                         -745.1332191019411, -745.1332191019412}) {
    x.push_back(v);
  }
  const size_t n = x.size();  // not a multiple of 4: the tail path runs
  std::vector<double> sigmoid_ref(n), tanh_ref(n), exp_ref(n);
  for (size_t i = 0; i < n; ++i) {
    sigmoid_ref[i] = 1.0 / (1.0 + std::exp(-x[i]));
    tanh_ref[i] = std::tanh(x[i]);
    exp_ref[i] = std::exp(x[i]);
  }
  const struct {
    ActKind kind;
    const std::vector<double>* ref;
  } transcendental[] = {{ActKind::kSigmoid, &sigmoid_ref},
                        {ActKind::kTanh, &tanh_ref},
                        {ActKind::kExp, &exp_ref}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    std::vector<double> h(n);
    for (const auto& t : transcendental) {
      SCOPED_TRACE(static_cast<int>(t.kind));
      kern.activation(t.kind, x.data(), h.data(), n);
      int64_t worst = 0;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_FALSE(std::isnan(h[i])) << "x=" << x[i];
        worst = std::max(worst, UlpDistance(h[i], (*t.ref)[i]));
      }
      // exp itself stays within 2 ulp; sigmoid and tanh are compared
      // against their own double-rounded libm formulas.
      EXPECT_LE(worst, 2);
      if (!kern.simd) EXPECT_EQ(worst, 0);
      // NaN in, NaN out, in a vector lane and in the tail.
      const double nans[5] = {nan, 1.0, -nan, 0.5, nan};
      double out[5];
      kern.activation(t.kind, nans, out, 5);
      EXPECT_TRUE(std::isnan(out[0]) && std::isnan(out[2]) &&
                  std::isnan(out[4]));
      EXPECT_FALSE(std::isnan(out[1]) || std::isnan(out[3]));
    }
    // ReLU and identity are exact everywhere (NaN -> 0 for ReLU, as the
    // scalar loop's `a > 0 ? a : 0` has it).
    kern.activation(ActKind::kRelu, x.data(), h.data(), n);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(h[i], x[i] > 0.0 ? x[i] : 0.0);
    kern.activation(ActKind::kIdentity, x.data(), h.data(), n);
    EXPECT_EQ(0, std::memcmp(h.data(), x.data(), n * sizeof(double)));
    const double relu_nan[1] = {nan};
    double relu_out[1];
    kern.activation(ActKind::kRelu, relu_nan, relu_out, 1);
    EXPECT_EQ(relu_out[0], 0.0);
  }
  // The scalar table is the row-major NN reference, byte for byte.
  Matrix a(1, n);
  std::copy(x.begin(), x.end(), a.data());
  for (const auto act : {nn::Activation::kSigmoid, nn::Activation::kTanh,
                         nn::Activation::kRelu, nn::Activation::kIdentity}) {
    Matrix ref;
    nn::ApplyActivation(act, a, &ref);
    std::vector<double> h(n);
    ScalarKernels().activation(nn::KernelActivation(act), x.data(), h.data(),
                               n);
    EXPECT_EQ(0, std::memcmp(h.data(), ref.data(), n * sizeof(double)))
        << nn::ActivationName(act);
  }
}

TEST(KernelsTest, BackendEnvOverrideForcesTable) {
  {
    ScopedBackendEnv env("portable");
    ScopedKernels simd(KernelMode::kSimd);
    EXPECT_STREQ(Active().name, "portable");
    EXPECT_STREQ(SimdBackendName(), "portable");
  }
  {
    ScopedBackendEnv env("scalar");
    ScopedKernels simd(KernelMode::kSimd);
    EXPECT_STREQ(Active().name, "scalar");
  }
  {
    // "native" picks the best table the CPU supports — same choice as
    // no override at all (resolved with the variable genuinely absent,
    // whatever the ambient environment forces).
    std::string unforced;
    {
      ScopedBackendEnv clear(nullptr);
      unforced = SimdBackendName();
    }
    ScopedBackendEnv env("native");
    ScopedKernels simd(KernelMode::kSimd);
    EXPECT_STREQ(Active().name, unforced.c_str());
  }
  // kScalar mode never consults the override: golden runs survive a
  // forced-portable environment untouched.
  {
    ScopedBackendEnv env("portable");
    ScopedKernels scalar(KernelMode::kScalar);
    EXPECT_STREQ(Active().name, "scalar");
  }
}

TEST(KernelsTest, RoutedOpsChargeSameCountsOnBothBackends) {
  // The accounting contract: la/ops.h wrappers charge in the wrapper, so
  // the counted stream is identical whichever table executes underneath.
  Rng rng(3);
  const size_t n = 33;
  std::vector<double> a(n), b(n), y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextGaussian();
    b[i] = rng.NextGaussian();
  }
  Matrix sq = RandomMatrix(n, n, &rng);
  OpCounters deltas[2];
  for (int pass = 0; pass < 2; ++pass) {
    ScopedKernels mode(pass == 0 ? KernelMode::kScalar : KernelMode::kSimd);
    const OpCounters before = GlobalOps();
    (void)Dot(a.data(), b.data(), n);
    Axpy(2.0, a.data(), y.data(), n);
    (void)QuadForm(sq, a.data(), n);
    Matrix g(n, n);
    AddOuter(1.0, a.data(), n, b.data(), n, &g, 0, 0);
    deltas[pass] = GlobalOps() - before;
  }
  EXPECT_EQ(deltas[0].mults, deltas[1].mults);
  EXPECT_EQ(deltas[0].adds, deltas[1].adds);
  EXPECT_EQ(deltas[0].subs, deltas[1].subs);
  EXPECT_EQ(deltas[0].exps, deltas[1].exps);
}

}  // namespace
}  // namespace factorml::la
