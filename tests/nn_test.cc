#include <cmath>
#include <tuple>

#include "common/opcount.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "join/attribute_view.h"
#include "join/materialize.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "nn/activation.h"
#include "nn/backprop.h"
#include "nn/mlp.h"
#include "nn/trainers.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace factorml::nn {
namespace {

using data::GenerateSynthetic;
using factorml::testing::TempDir;
using la::Matrix;
using storage::BufferPool;

data::SyntheticSpec SmallSpec(const std::string& dir, int64_t n_s = 600,
                              int64_t n_r = 30, size_t d_s = 3,
                              size_t d_r = 4) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.s_rows = n_s;
  spec.s_feats = d_s;
  spec.attrs = {data::AttributeSpec{n_r, d_r}};
  spec.with_target = true;
  spec.seed = 33;
  return spec;
}

NnOptions SmallOptions(const std::string& dir) {
  NnOptions opt;
  opt.hidden = {8};
  opt.epochs = 3;
  opt.learning_rate = 0.02;
  opt.batch_rows = 64;
  opt.temp_dir = dir;
  return opt;
}

// ------------------------------------------------------------ Activation

TEST(ActivationTest, SigmoidValuesAndGrad) {
  Matrix a(1, 3);
  a(0, 0) = 0.0;
  a(0, 1) = 100.0;
  a(0, 2) = -100.0;
  Matrix h, g;
  ApplyActivation(Activation::kSigmoid, a, &h);
  EXPECT_NEAR(h(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(h(0, 1), 1.0, 1e-9);
  EXPECT_NEAR(h(0, 2), 0.0, 1e-9);
  ActivationGrad(Activation::kSigmoid, a, h, &g);
  EXPECT_NEAR(g(0, 0), 0.25, 1e-12);
}

TEST(ActivationTest, TanhReluIdentity) {
  Matrix a(1, 2);
  a(0, 0) = 1.0;
  a(0, 1) = -2.0;
  Matrix h;
  ApplyActivation(Activation::kTanh, a, &h);
  EXPECT_NEAR(h(0, 0), std::tanh(1.0), 1e-12);
  ApplyActivation(Activation::kRelu, a, &h);
  EXPECT_DOUBLE_EQ(h(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(h(0, 1), 0.0);
  ApplyActivation(Activation::kIdentity, a, &h);
  EXPECT_DOUBLE_EQ(h(0, 1), -2.0);
}

TEST(ActivationTest, OnlyIdentityIsAdditive) {
  // Sec. VI-A2: exact cross-layer sharing needs f(x+y) = f(x)+f(y).
  EXPECT_TRUE(IsAdditive(Activation::kIdentity));
  EXPECT_FALSE(IsAdditive(Activation::kSigmoid));
  EXPECT_FALSE(IsAdditive(Activation::kTanh));
  EXPECT_FALSE(IsAdditive(Activation::kRelu));
}

TEST(ActivationTest, GradMatchesNumericalDerivative) {
  for (const auto act : {Activation::kSigmoid, Activation::kTanh,
                         Activation::kIdentity}) {
    Matrix a(1, 1);
    a(0, 0) = 0.37;
    Matrix h, g;
    ApplyActivation(act, a, &h);
    ActivationGrad(act, a, h, &g);
    const double eps = 1e-6;
    Matrix ap(1, 1), am(1, 1), hp, hm;
    ap(0, 0) = 0.37 + eps;
    am(0, 0) = 0.37 - eps;
    ApplyActivation(act, ap, &hp);
    ApplyActivation(act, am, &hm);
    const double numeric = (hp(0, 0) - hm(0, 0)) / (2.0 * eps);
    EXPECT_NEAR(g(0, 0), numeric, 1e-6) << ActivationName(act);
  }
}

// ------------------------------------------------------------------- Mlp

TEST(MlpTest, InitShapesAndDeterminism) {
  Mlp a = Mlp::Init(6, {4, 3}, Activation::kSigmoid, 5);
  ASSERT_EQ(a.num_weight_layers(), 3u);
  EXPECT_EQ(a.w[0].rows(), 4u);
  EXPECT_EQ(a.w[0].cols(), 6u);
  EXPECT_EQ(a.w[1].rows(), 3u);
  EXPECT_EQ(a.w[2].rows(), 1u);
  EXPECT_EQ(a.first_hidden_units(), 4u);
  Mlp b = Mlp::Init(6, {4, 3}, Activation::kSigmoid, 5);
  EXPECT_DOUBLE_EQ(Mlp::MaxAbsDiffParams(a, b), 0.0);
  Mlp c = Mlp::Init(6, {4, 3}, Activation::kSigmoid, 6);
  EXPECT_GT(Mlp::MaxAbsDiffParams(a, c), 0.0);
}

TEST(MlpTest, ForwardMatchesManualComputation) {
  // 2 inputs -> 1 hidden sigmoid unit -> linear output.
  Mlp mlp = Mlp::Init(2, {1}, Activation::kSigmoid, 1);
  mlp.w[0](0, 0) = 0.5;
  mlp.w[0](0, 1) = -0.25;
  mlp.b[0][0] = 0.1;
  mlp.w[1](0, 0) = 2.0;
  mlp.b[1][0] = -1.0;
  Matrix x(1, 2);
  x(0, 0) = 1.0;
  x(0, 1) = 2.0;
  Matrix out;
  mlp.Forward(x, &out);
  const double a1 = 0.5 * 1.0 - 0.25 * 2.0 + 0.1;
  const double h1 = 1.0 / (1.0 + std::exp(-a1));
  EXPECT_NEAR(out(0, 0), 2.0 * h1 - 1.0, 1e-12);
}

TEST(MlpTest, HalfMseOfPerfectPredictionIsZero) {
  Mlp mlp = Mlp::Init(1, {2}, Activation::kIdentity, 2);
  Matrix x(3, 1);
  x(0, 0) = 0.5;
  x(1, 0) = -1.0;
  x(2, 0) = 2.0;
  Matrix out;
  mlp.Forward(x, &out);
  std::vector<double> y = {out(0, 0), out(1, 0), out(2, 0)};
  EXPECT_NEAR(mlp.HalfMse(x, y), 0.0, 1e-15);
}

// -------------------------------------------------- Gradient correctness

// Numerical gradient check of the full BP step: perturb each parameter,
// verify the analytic update direction matches -lr * dE/dtheta.
TEST(BackpropTest, UpdateMatchesNumericalGradient) {
  const size_t d = 3, nh = 4, b = 5;
  Mlp mlp = Mlp::Init(d, {nh}, Activation::kTanh, 9);
  Matrix x(b, d);
  std::vector<double> y(b);
  Rng rng(31);
  for (size_t r = 0; r < b; ++r) {
    for (size_t j = 0; j < d; ++j) x(r, j) = rng.NextGaussian();
    y[r] = rng.NextGaussian();
  }
  const double lr = 0.1;

  // Loss as a function of the network: E = 1/(2b) sum (o - y)^2.
  auto loss = [&](const Mlp& net) {
    Matrix out;
    net.Forward(x, &out);
    double sse = 0.0;
    for (size_t r = 0; r < b; ++r) {
      const double e = out(r, 0) - y[r];
      sse += e * e;
    }
    return sse / (2.0 * b);
  };

  // One analytic step.
  Mlp stepped = mlp;
  internal::BackpropEngine engine(&stepped, lr);
  Matrix a1, delta1, grad0;
  la::GemmNT(x, stepped.w[0], &a1, false);
  la::AddRowVector(stepped.b[0].data(), &a1);
  engine.Step(a1, y.data(), &delta1);
  la::GemmTN(delta1, x, &grad0, false);
  internal::ApplyGradient(&stepped.w[0], grad0, lr);

  // Numerical gradient for a sample of parameters in every layer.
  const double eps = 1e-6;
  for (size_t layer = 0; layer < mlp.w.size(); ++layer) {
    for (size_t idx : {size_t{0}, mlp.w[layer].size() / 2}) {
      Mlp plus = mlp, minus = mlp;
      plus.w[layer].data()[idx] += eps;
      minus.w[layer].data()[idx] -= eps;
      const double g = (loss(plus) - loss(minus)) / (2.0 * eps);
      const double applied =
          mlp.w[layer].data()[idx] - stepped.w[layer].data()[idx];
      EXPECT_NEAR(applied, lr * g, 1e-6)
          << "layer " << layer << " idx " << idx;
    }
    // And one bias per layer.
    Mlp plus = mlp, minus = mlp;
    plus.b[layer][0] += eps;
    minus.b[layer][0] -= eps;
    const double g = (loss(plus) - loss(minus)) / (2.0 * eps);
    const double applied = mlp.b[layer][0] - stepped.b[layer][0];
    EXPECT_NEAR(applied, lr * g, 1e-6) << "bias layer " << layer;
  }
}

// ------------------------------------------- Strip-layout step (simd)

/// Copies a row-major block into column strips of `height` rows.
storage::ColumnStrips ToStrips(const Matrix& m, size_t height) {
  storage::ColumnStrips st;
  st.Shape(height, m.rows(), m.cols(), /*key_cols=*/0, /*first_row=*/0);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t j = 0; j < m.cols(); ++j) {
      st.MutableCol(r / height, j)[r % height] = m(r, j);
    }
  }
  return st;
}

TEST(BackpropTest, StripStepMatchesRowStep) {
  // Two hidden layers, dropout, momentum and weight decay, and a batch
  // that leaves a short last strip. StepStrips must charge Step's op
  // counts exactly, draw the same dropout masks (same RNG stream), land
  // within reassociation tolerance of Step's parameters and delta1, and
  // give bit-identical results for any thread count.
  const size_t d = 5, b = 300, height = 128;
  for (const Activation act : {Activation::kSigmoid, Activation::kTanh,
                               Activation::kRelu, Activation::kIdentity}) {
    SCOPED_TRACE(ActivationName(act));
    const Mlp base = Mlp::Init(d, {12, 6}, act, 4);
    Rng rng(8);
    Matrix a1(b, 12);
    std::vector<double> y(b);
    for (size_t i = 0; i < a1.size(); ++i) a1.data()[i] = rng.NextGaussian();
    for (auto& v : y) v = rng.NextGaussian();
    const storage::ColumnStrips a1s = ToStrips(a1, height);

    Mlp row_net = base, strip_net = base, strip_net4 = base;
    internal::BackpropEngine row(&row_net, 0.05), strip(&strip_net, 0.05),
        strip4(&strip_net4, 0.05);
    for (auto* e : {&row, &strip, &strip4}) {
      e->EnableDropout(0.25, 99);
      e->ConfigureSgd(0.9, 1e-3);
    }
    Matrix delta1;
    storage::ColumnStrips d1s, d1s4;
    // Two steps, so the second one runs on updated weights, velocities
    // and a continued mask stream.
    for (int step = 0; step < 2; ++step) {
      la::SelectKernels(la::KernelMode::kScalar);
      const OpCounters row_before = GlobalOps();
      const double row_sse = row.Step(a1, y.data(), &delta1);
      const OpCounters row_ops = GlobalOps() - row_before;

      la::SelectKernels(la::KernelMode::kSimd);
      const OpCounters strip_before = GlobalOps();
      const double strip_sse = strip.StepStrips(a1s, y.data(), 1, &d1s);
      const OpCounters strip_ops = GlobalOps() - strip_before;
      const double strip4_sse = strip4.StepStrips(a1s, y.data(), 4, &d1s4);
      la::SelectKernels(la::KernelMode::kScalar);

      EXPECT_EQ(strip_ops.mults, row_ops.mults);
      EXPECT_EQ(strip_ops.adds, row_ops.adds);
      EXPECT_EQ(strip_ops.subs, row_ops.subs);
      EXPECT_EQ(strip_ops.exps, row_ops.exps);
      EXPECT_NEAR(strip_sse, row_sse, 1e-12 * row_sse);
      EXPECT_LT(Mlp::MaxAbsDiffParams(strip_net, row_net), 1e-12);
      for (size_t r = 0; r < b; ++r) {
        for (size_t u = 0; u < 12; ++u) {
          ASSERT_NEAR(d1s.Col(r / height, u)[r % height], delta1(r, u),
                      1e-14);
        }
      }
      EXPECT_EQ(strip4_sse, strip_sse);
      EXPECT_EQ(Mlp::MaxAbsDiffParams(strip_net4, strip_net), 0.0);
      EXPECT_EQ(d1s4.data, d1s.data);
    }
  }
}

// --------------------------------------------- Exactness: M == S == F

class NnExactnessTest
    : public ::testing::TestWithParam<std::tuple<Activation, size_t>> {};

TEST_P(NnExactnessTest, AllAlgorithmsAgree) {
  const auto [act, nh] = GetParam();
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  opt.activation = act;
  opt.hidden = {nh};

  auto m = std::move(TrainNnMaterialized(rel, opt, &pool, nullptr)).value();
  auto s = std::move(TrainNnStreaming(rel, opt, &pool, nullptr)).value();
  auto f = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, s), 1e-9);
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, f), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    ActivationsAndWidths, NnExactnessTest,
    ::testing::Combine(::testing::Values(Activation::kSigmoid,
                                         Activation::kTanh,
                                         Activation::kRelu,
                                         Activation::kIdentity),
                       ::testing::Values(4, 16)));

TEST(NnExactnessTest, MultiwayAllAlgorithmsAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto spec = SmallSpec(dir.str(), 500, 20, 2, 3);
  spec.attrs.push_back(data::AttributeSpec{12, 2});
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  const NnOptions opt = SmallOptions(dir.str());

  auto m = std::move(TrainNnMaterialized(rel, opt, &pool, nullptr)).value();
  auto s = std::move(TrainNnStreaming(rel, opt, &pool, nullptr)).value();
  auto f = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, s), 1e-9);
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, f), 1e-6);
}

TEST(NnExactnessTest, ShuffledEpochsStillAgree) {
  // The paper's SGD variant: R's keys are permuted per epoch; all three
  // algorithms share the permutation so updates stay identical.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  opt.shuffle = true;

  auto m = std::move(TrainNnMaterialized(rel, opt, &pool, nullptr)).value();
  auto s = std::move(TrainNnStreaming(rel, opt, &pool, nullptr)).value();
  auto f = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, s), 1e-9);
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, f), 1e-6);
}

TEST(NnExactnessTest, GroupedBackwardComputesSameGradient) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  auto base = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  opt.grouped_backward = true;
  core::TrainReport grouped_report;
  auto grouped =
      std::move(TrainNnFactorized(rel, opt, &pool, &grouped_report)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(base, grouped), 1e-7);
}

TEST(NnExactnessTest, DeeperNetworksAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  opt.hidden = {6, 5};
  auto m = std::move(TrainNnMaterialized(rel, opt, &pool, nullptr)).value();
  auto f = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, f), 1e-6);
}

TEST(NnExactnessTest, DropoutPreservesAlgorithmAgreement) {
  // The paper notes Dropout applied after activation is compatible with
  // the factorization (Sec. VI-A); all three trainers draw masks from the
  // same seeded stream over the same batch sequence.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  opt.hidden = {10, 6};
  opt.hidden_dropout = 0.3;

  auto m = std::move(TrainNnMaterialized(rel, opt, &pool, nullptr)).value();
  auto s = std::move(TrainNnStreaming(rel, opt, &pool, nullptr)).value();
  auto f = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, s), 1e-9);
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, f), 1e-6);
}

TEST(NnTrainingTest, DropoutChangesTrainingTrajectory) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  auto plain = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  opt.hidden_dropout = 0.5;
  auto dropped =
      std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_GT(Mlp::MaxAbsDiffParams(plain, dropped), 1e-6);
}

TEST(NnTrainingTest, DropoutStillLearns) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(SmallSpec(dir.str(), 2000, 40),
                                         &pool))
                 .value();
  NnOptions opt = SmallOptions(dir.str());
  opt.hidden_dropout = 0.2;
  opt.epochs = 1;
  core::TrainReport r1;
  ASSERT_TRUE(TrainNnFactorized(rel, opt, &pool, &r1).ok());
  opt.epochs = 10;
  core::TrainReport r10;
  ASSERT_TRUE(TrainNnFactorized(rel, opt, &pool, &r10).ok());
  EXPECT_LT(r10.final_objective, r1.final_objective);
}

TEST(BackpropTest, DropoutGradientMatchesNumericalGradient) {
  // With a fixed mask stream, the dropped network is a deterministic
  // function; verify the masked backward pass against finite differences
  // of a loss that applies the same masks.
  const size_t d = 3, nh = 5, b = 4;
  Mlp mlp = Mlp::Init(d, {nh}, Activation::kSigmoid, 13);
  Matrix x(b, d);
  std::vector<double> y(b);
  Rng data_rng(41);
  for (size_t r = 0; r < b; ++r) {
    for (size_t j = 0; j < d; ++j) x(r, j) = data_rng.NextGaussian();
    y[r] = data_rng.NextGaussian();
  }
  const double lr = 0.05;
  const double rate = 0.4;
  const uint64_t mask_seed = 1234;

  // Reconstruct the exact mask the engine will draw (same Rng stream).
  Matrix mask(b, nh);
  {
    Rng mask_rng(mask_seed);
    const double keep = 1.0 / (1.0 - rate);
    for (size_t i = 0; i < mask.size(); ++i) {
      mask.data()[i] = mask_rng.NextDouble() >= rate ? keep : 0.0;
    }
  }
  auto loss = [&](const Mlp& net) {
    // Forward with the fixed mask applied after the hidden activation.
    Matrix a1, h, out;
    la::GemmNT(x, net.w[0], &a1, false);
    la::AddRowVector(net.b[0].data(), &a1);
    ApplyActivation(net.activation, a1, &h);
    for (size_t i = 0; i < h.size(); ++i) h.data()[i] *= mask.data()[i];
    la::GemmNT(h, net.w[1], &out, false);
    la::AddRowVector(net.b[1].data(), &out);
    double sse = 0.0;
    for (size_t r = 0; r < b; ++r) {
      const double e = out(r, 0) - y[r];
      sse += e * e;
    }
    return sse / (2.0 * b);
  };

  Mlp stepped = mlp;
  internal::BackpropEngine engine(&stepped, lr);
  engine.EnableDropout(rate, mask_seed);
  Matrix a1, delta1, grad0;
  la::GemmNT(x, stepped.w[0], &a1, false);
  la::AddRowVector(stepped.b[0].data(), &a1);
  engine.Step(a1, y.data(), &delta1);
  la::GemmTN(delta1, x, &grad0, false);
  internal::ApplyGradient(&stepped.w[0], grad0, lr);

  const double eps = 1e-6;
  for (size_t layer = 0; layer < mlp.w.size(); ++layer) {
    for (size_t idx : {size_t{0}, mlp.w[layer].size() - 1}) {
      Mlp plus = mlp, minus = mlp;
      plus.w[layer].data()[idx] += eps;
      minus.w[layer].data()[idx] -= eps;
      const double g = (loss(plus) - loss(minus)) / (2.0 * eps);
      const double applied =
          mlp.w[layer].data()[idx] - stepped.w[layer].data()[idx];
      EXPECT_NEAR(applied, lr * g, 1e-6)
          << "layer " << layer << " idx " << idx;
    }
  }
}

TEST(NnExactnessTest, MomentumAndWeightDecayPreserveAgreement) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  opt.momentum = 0.9;
  opt.weight_decay = 1e-4;

  auto m = std::move(TrainNnMaterialized(rel, opt, &pool, nullptr)).value();
  auto s = std::move(TrainNnStreaming(rel, opt, &pool, nullptr)).value();
  auto f = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, s), 1e-9);
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, f), 1e-6);
}

TEST(NnTrainingTest, MomentumChangesTrajectory) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  auto plain = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  opt.momentum = 0.9;
  auto mom = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_GT(Mlp::MaxAbsDiffParams(plain, mom), 1e-6);
}

TEST(NnTrainingTest, WeightDecayShrinksParameterNorm) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(SmallSpec(dir.str(), 2000, 40),
                                         &pool))
                 .value();
  NnOptions opt = SmallOptions(dir.str());
  opt.epochs = 8;
  auto plain = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  opt.weight_decay = 0.05;
  auto decayed =
      std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  auto norm = [](const Mlp& net) {
    double s = 0.0;
    for (const auto& w : net.w) {
      for (size_t i = 0; i < w.size(); ++i) s += w.data()[i] * w.data()[i];
    }
    return s;
  };
  EXPECT_LT(norm(decayed), norm(plain));
}

TEST(NnTrainingTest, MomentumAcceleratesOnSmoothProblem) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(SmallSpec(dir.str(), 3000, 60),
                                         &pool))
                 .value();
  NnOptions opt = SmallOptions(dir.str());
  opt.epochs = 6;
  opt.learning_rate = 0.01;
  core::TrainReport plain, mom;
  ASSERT_TRUE(TrainNnFactorized(rel, opt, &pool, &plain).ok());
  opt.momentum = 0.9;
  ASSERT_TRUE(TrainNnFactorized(rel, opt, &pool, &mom).ok());
  EXPECT_LT(mom.final_objective, plain.final_objective);
}

// ---------------------------------------------------- Training behavior

TEST(NnTrainingTest, LossDecreasesOverEpochs) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(SmallSpec(dir.str(), 2000, 40),
                                         &pool))
                 .value();
  NnOptions opt = SmallOptions(dir.str());
  opt.epochs = 1;
  core::TrainReport r1;
  ASSERT_TRUE(TrainNnFactorized(rel, opt, &pool, &r1).ok());
  opt.epochs = 10;
  core::TrainReport r10;
  ASSERT_TRUE(TrainNnFactorized(rel, opt, &pool, &r10).ok());
  EXPECT_LT(r10.final_objective, r1.final_objective);
}

TEST(NnTrainingTest, RequiresTarget) {
  TempDir dir;
  BufferPool pool(256);
  auto spec = SmallSpec(dir.str());
  spec.with_target = false;
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  EXPECT_FALSE(
      TrainNnFactorized(rel, SmallOptions(dir.str()), &pool, nullptr).ok());
}

TEST(NnTrainingTest, RequiresHiddenLayer) {
  TempDir dir;
  BufferPool pool(256);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  opt.hidden.clear();
  EXPECT_FALSE(TrainNnFactorized(rel, opt, &pool, nullptr).ok());
}

TEST(NnTrainingTest, RejectsBadHyperparametersBeforeTraining) {
  // Each bad value is an InvalidArgument naming the option, returned
  // before any cursor or engine is built (these used to abort the
  // process, or run silently).
  TempDir dir;
  BufferPool pool(256);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  const std::vector<std::pair<std::string, void (*)(NnOptions*)>> cases = {
      {"--batch", [](NnOptions* o) { o->batch_rows = 0; }},
      {"--dropout", [](NnOptions* o) { o->hidden_dropout = 1.0; }},
      {"--dropout", [](NnOptions* o) { o->hidden_dropout = -0.1; }},
      {"--momentum", [](NnOptions* o) { o->momentum = 1.0; }},
      {"--momentum", [](NnOptions* o) { o->momentum = -0.5; }},
      {"--weight_decay", [](NnOptions* o) { o->weight_decay = -1e-3; }},
      {"--lr", [](NnOptions* o) { o->learning_rate = 0.0; }},
      {"--lr", [](NnOptions* o) { o->learning_rate = -0.1; }},
      {"--lr", [](NnOptions* o) { o->learning_rate = INFINITY; }},
      {"--lr", [](NnOptions* o) { o->learning_rate = NAN; }},
      {"--epochs", [](NnOptions* o) { o->epochs = -1; }},
      {"--nh", [](NnOptions* o) { o->hidden = {0}; }},
  };
  for (const auto& [flag, mutate] : cases) {
    NnOptions opt = SmallOptions(dir.str());
    mutate(&opt);
    for (const auto algo :
         {core::Algorithm::kMaterialized, core::Algorithm::kStreaming,
          core::Algorithm::kFactorized}) {
      const auto r = core::TrainNn(rel, opt, algo, &pool, nullptr);
      ASSERT_FALSE(r.ok()) << flag;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << flag;
      EXPECT_NE(r.status().message().find(flag), std::string::npos)
          << r.status().ToString();
    }
  }
  // The boundaries themselves are legal: no dropout/momentum/decay and a
  // zero-epoch budget.
  NnOptions opt = SmallOptions(dir.str());
  opt.epochs = 0;
  EXPECT_TRUE(TrainNnStreaming(rel, opt, &pool, nullptr).ok());
}

TEST(NnTrainingTest, NonFiniteObjectiveIsAnError) {
  // A learning rate this large overflows the weights within the first
  // epoch; the NaN must surface as an error naming the family and the
  // epoch on both kernel planes (the vector activations propagate NaN).
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  opt.learning_rate = 1e200;
  for (const auto kernels : {la::KernelMode::kScalar, la::KernelMode::kSimd}) {
    opt.kernels = kernels;
    for (const auto algo :
         {core::Algorithm::kMaterialized, core::Algorithm::kStreaming,
          core::Algorithm::kFactorized}) {
      const auto r = core::TrainNn(rel, opt, algo, &pool, nullptr);
      ASSERT_FALSE(r.ok()) << core::AlgorithmName(algo);
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
      EXPECT_NE(r.status().message().find("NN"), std::string::npos);
      EXPECT_NE(r.status().message().find("epoch 1"), std::string::npos)
          << r.status().ToString();
    }
  }
}

TEST(NnExactnessTest, FullBatchAndTinyBatchesBothAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  // Full-batch gradient descent: one update per epoch.
  opt.batch_rows = 1u << 20;
  auto m_full =
      std::move(TrainNnMaterialized(rel, opt, &pool, nullptr)).value();
  auto f_full =
      std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(m_full, f_full), 1e-6);
  // Per-rid-group updates: the finest batch granularity.
  opt.batch_rows = 1;
  auto m_tiny =
      std::move(TrainNnMaterialized(rel, opt, &pool, nullptr)).value();
  auto f_tiny =
      std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(m_tiny, f_tiny), 1e-6);
  // Different batch sizes must give different SGD trajectories.
  EXPECT_GT(Mlp::MaxAbsDiffParams(m_full, m_tiny), 1e-9);
}

TEST(NnExactnessTest, UnmatchedAttributeTuplesHandled) {
  TempDir dir;
  BufferPool pool(512);
  auto spec = SmallSpec(dir.str(), 15, 40, 2, 3);
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  NnOptions opt = SmallOptions(dir.str());
  opt.hidden = {4};
  auto m = std::move(TrainNnMaterialized(rel, opt, &pool, nullptr)).value();
  auto f = std::move(TrainNnFactorized(rel, opt, &pool, nullptr)).value();
  EXPECT_LT(Mlp::MaxAbsDiffParams(m, f), 1e-6);
}

// --------------------------------------------------- Cost accounting

TEST(NnCostTest, FactorizedDoesFewerMultiplications) {
  TempDir dir;
  BufferPool pool(1024);
  // rr = 100 with a wide R side: the first-layer reuse must pay off.
  auto rel = std::move(GenerateSynthetic(
                           SmallSpec(dir.str(), 4000, 40, 2, 12), &pool))
                 .value();
  NnOptions opt = SmallOptions(dir.str());
  opt.hidden = {16};
  core::TrainReport rs, rf;
  ASSERT_TRUE(TrainNnStreaming(rel, opt, &pool, &rs).ok());
  ASSERT_TRUE(TrainNnFactorized(rel, opt, &pool, &rf).ok());
  EXPECT_LT(rf.ops.mults, rs.ops.mults);
}

TEST(NnCostTest, MaterializedPaysWriteIo) {
  TempDir dir;
  BufferPool pool(64);
  auto rel = std::move(GenerateSynthetic(
                           SmallSpec(dir.str(), 4000, 40, 3, 4), &pool))
                 .value();
  const NnOptions opt = SmallOptions(dir.str());
  core::TrainReport rm, rf;
  ASSERT_TRUE(TrainNnMaterialized(rel, opt, &pool, &rm).ok());
  ASSERT_TRUE(TrainNnFactorized(rel, opt, &pool, &rf).ok());
  EXPECT_GT(rm.io.pages_written, 0u);
  EXPECT_EQ(rf.io.pages_written, 0u);
  EXPECT_EQ(rm.algorithm, "M-NN");
  EXPECT_EQ(rf.algorithm, "F-NN");
}

}  // namespace
}  // namespace factorml::nn
