// core/pipeline tests.
//
// 1) Seed-regression: the six GMM/NN trainers, now thin ModelProgram
//    bindings on the pipeline, must reproduce the pre-refactor outputs
//    *bit-identically* at --threads=1 — objectives (exact doubles), op
//    counts and page I/O. The golden values below were captured from the
//    hand-written trainers before the pipeline refactor.
// 2) Parity: the two model families added on top of the pipeline (ridge
//    linear regression, k-means) must produce matching parameters and
//    objectives under all three strategies at threads 1 and 4.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/factorml.h"
#include "core/pipeline/checkpoint.h"
#include "gtest/gtest.h"
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

constexpr core::Algorithm kAll[] = {core::Algorithm::kMaterialized,
                                    core::Algorithm::kStreaming,
                                    core::Algorithm::kFactorized};

// Every strategy rejects `opt` up front with an InvalidArgument whose
// message names `option` (the CLI flag, or the field when it has none).
template <typename Options, typename Train>
void ExpectRejectedEverywhere(const join::NormalizedRelations& rel,
                              BufferPool* pool, const Options& opt,
                              Train train, const std::string& option) {
  for (const auto algo : kAll) {
    auto m = train(rel, opt, algo, pool, nullptr);
    ASSERT_FALSE(m.ok()) << option << " " << core::AlgorithmName(algo);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument) << option;
    EXPECT_NE(m.status().message().find(option), std::string::npos)
        << m.status().ToString();
  }
}

// ------------------------------------------------- seed bit-exactness

struct Golden {
  double objective;
  uint64_t mults, adds, subs, exps;
  uint64_t pages_read, pages_written;
};

void ExpectGolden(const core::TrainReport& r, const Golden& g) {
  // Op counts and page I/O are integers and must match exactly — they
  // prove the refactored pipeline replays the seed trainers' work
  // stream. The objective goes through libm (exp), which is not
  // correctly rounded across libc versions/platforms, so it gets a
  // last-ulps relative tolerance instead of bitwise equality.
  EXPECT_NEAR(r.final_objective, g.objective,
              1e-12 * std::fabs(g.objective))
      << r.algorithm;
  EXPECT_EQ(r.ops.mults, g.mults) << r.algorithm;
  EXPECT_EQ(r.ops.adds, g.adds) << r.algorithm;
  EXPECT_EQ(r.ops.subs, g.subs) << r.algorithm;
  EXPECT_EQ(r.ops.exps, g.exps) << r.algorithm;
  EXPECT_EQ(r.io.pages_read, g.pages_read) << r.algorithm;
  EXPECT_EQ(r.io.pages_written, g.pages_written) << r.algorithm;
}

TEST(PipelineSeedRegressionTest, GmmTrainersReproduceSeedOutputs) {
  // Captured from the pre-pipeline trainers at --threads=1 (gcc, x86-64).
  const Golden golden[3] = {
      {-0x1.3685da0d6379dp+15, 4111173, 3920373, 459000, 63072, 49, 32},
      {-0x1.3685da0d6379dp+15, 4111173, 3920373, 459000, 63072, 19, 0},
      {-0x1.3685da0d63798p+15, 1758573, 1700973, 192600, 63072, 19, 0},
  };
  TempDir dir;
  BufferPool pool(512);
  // Same dataset as the NN golden run (target carried; GMM skips it).
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    core::TrainReport report;
    auto params = core::TrainGmm(rel, opt, kAll[a], &pool, &report);
    ASSERT_TRUE(params.ok()) << params.status().ToString();
    ExpectGolden(report, golden[a]);
    EXPECT_EQ(report.iterations, 3);
  }
}

TEST(PipelineSeedRegressionTest, NnTrainersReproduceSeedOutputs) {
  const Golden golden[3] = {
      {0x1.61d149e909b2ep-4, 3046830, 3051000, 157830, 144000, 49, 32},
      {0x1.61d149e909b2ep-4, 3046830, 3051000, 157830, 144000, 19, 0},
      {0x1.61d149e909b2ep-4, 2480430, 2342520, 157830, 144000, 19, 0},
  };
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  nn::NnOptions opt;
  opt.hidden = {16};
  opt.epochs = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    core::TrainReport report;
    auto mlp = core::TrainNn(rel, opt, kAll[a], &pool, &report);
    ASSERT_TRUE(mlp.ok()) << mlp.status().ToString();
    ExpectGolden(report, golden[a]);
  }
}

// Linear models have no seed trainer of their own to pin against, so these
// goldens pin the scalar work stream linreg and logreg replayed before
// they shared one weighted Gram/cofactor core: per run the objective, op
// counts, page I/O and every coefficient. Captured with --kernels=scalar
// at --threads=1 (gcc, x86-64, glibc). The coefficients compare exactly;
// the objective keeps ExpectGolden's last-ulps tolerance.
struct LinearGolden {
  Golden run;
  double bias;
  std::vector<double> w;
};

template <typename Model>
void ExpectLinearGolden(const core::TrainReport& r, const Model& m,
                        const LinearGolden& g) {
  ExpectGolden(r, g.run);
  Model pinned;
  pinned.w = g.w;
  pinned.bias = g.bias;
  ASSERT_EQ(m.w.size(), pinned.w.size()) << r.algorithm;
  EXPECT_EQ(Model::MaxAbsDiff(m, pinned), 0.0) << r.algorithm;
}

TEST(PipelineSeedRegressionTest, LinregAndLogregReproduceParentOutputs) {
  // Order: dataset (single join, then a second attribute table that
  // exercises the multi-way cross blocks) x family (linreg, logreg) x
  // intercept (on, off) x M/S/F.
  const LinearGolden golden[24] = {
      // single, linreg, intercept on
      {{0x1.7eb3d6525658cp-7, 243401, 249301, 2, 0, 49, 32},
       -0x1.3ef448e3587f9p-3,
       {0x1.425af98b79f46p-5, 0x1.beb461c3310dfp-6, -0x1.7eecec0e244a1p-4,
        0x1.82b3cda5761c8p-4, -0x1.166bc95ecf51cp-4, -0x1.4e6ba3190f689p-2,
        -0x1.ac82a82d36609p-4, -0x1.ea6bb44b4fbacp-6}},
      {{0x1.7eb3d6525658cp-7, 243401, 249301, 2, 0, 19, 0},
       -0x1.3ef448e3587f9p-3,
       {0x1.425af98b79f46p-5, 0x1.beb461c3310dfp-6, -0x1.7eecec0e244a1p-4,
        0x1.82b3cda5761c8p-4, -0x1.166bc95ecf51cp-4, -0x1.4e6ba3190f689p-2,
        -0x1.ac82a82d36609p-4, -0x1.ea6bb44b4fbacp-6}},
      {{0x1.7eb3d65257852p-7, 59721, 56501, 2, 0, 19, 0},
       -0x1.3ef448e357974p-3,
       {0x1.425af98b79af9p-5, 0x1.beb461c330105p-6, -0x1.7eecec0e23f61p-4,
        0x1.82b3cda576265p-4, -0x1.166bc95ecf25cp-4, -0x1.4e6ba3190f178p-2,
        -0x1.ac82a82d35abcp-4, -0x1.ea6bb44b51c34p-6}},
      // single, linreg, intercept off
      {{0x1.93c0cc251d92cp-7, 243310, 219229, 2, 0, 49, 32},
       0x0p+0,
       {0x1.0986916d39a3p-5, 0x1.037370dd72053p-6, -0x1.3f3065e59e306p-4,
        0x1.b47e7c68b66f7p-4, -0x1.7b54a5f0adfcfp-4, -0x1.43e4a1a8e98c2p-2,
        -0x1.9c97121cb371cp-4, -0x1.03d407ab5ed8bp-5}},
      {{0x1.93c0cc251d92cp-7, 243310, 219229, 2, 0, 19, 0},
       0x0p+0,
       {0x1.0986916d39a3p-5, 0x1.037370dd72053p-6, -0x1.3f3065e59e306p-4,
        0x1.b47e7c68b66f7p-4, -0x1.7b54a5f0adfcfp-4, -0x1.43e4a1a8e98c2p-2,
        -0x1.9c97121cb371cp-4, -0x1.03d407ab5ed8bp-5}},
      {{0x1.93c0cc251ea12p-7, 59430, 56029, 2, 0, 19, 0},
       0x0p+0,
       {0x1.0986916d398b7p-5, 0x1.037370dd719cap-6, -0x1.3f3065e59e0ebp-4,
        0x1.b47e7c68b654bp-4, -0x1.7b54a5f0ad938p-4, -0x1.43e4a1a8e9481p-2,
        -0x1.9c97121cb2d56p-4, -0x1.03d407ab5fc12p-5}},
      // single, logreg, intercept on
      {{-0x1.1ff91c3ea9205p+2, 1225204, 1116808, 36036, 12000, 49, 32},
       -0x1.003cac5e0cac9p+23,
       {0x1.817b38b6002adp+18, 0x1.0fbe1f870a5fdp+18, -0x1.e0a9d42f1e728p+19,
        0x1.4641fcb642ddfp+20, -0x1.01cce06767fefp+19, -0x1.264403a18c189p+21,
        -0x1.c1887beb00367p+19, -0x1.57cd607a47eacp+20}},
      {{-0x1.1ff91c3ea9205p+2, 1225204, 1116808, 36036, 12000, 19, 0},
       -0x1.003cac5e0cac9p+23,
       {0x1.817b38b6002adp+18, 0x1.0fbe1f870a5fdp+18, -0x1.e0a9d42f1e728p+19,
        0x1.4641fcb642ddfp+20, -0x1.01cce06767fefp+19, -0x1.264403a18c189p+21,
        -0x1.c1887beb00367p+19, -0x1.57cd607a47eacp+20}},
      {{-0x1.1ff91c3ea8d8bp+2, 323284, 298408, 36036, 12000, 19, 0},
       -0x1.003cac5d86118p+23,
       {0x1.817b38b52e343p+18, 0x1.0fbe1f86731a6p+18, -0x1.e0a9d42e1ec1bp+19,
        0x1.4641fcb594fd6p+20, -0x1.01cce066dbbf2p+19, -0x1.264403a0eeeefp+21,
        -0x1.c1887bea1142cp+19, -0x1.57cd607995761p+20}},
      // single, logreg, intercept off
      {{-0x1.1ae585030a489p+2, 1116916, 996596, 36032, 12000, 49, 32},
       0x0p+0,
       {0x1.e19f06777e27cp+16, -0x1.594f7af77f6ebp+16, -0x1.991c62e1b76cfp+17,
        0x1.8f5079da0ce5ep+20, -0x1.5cc9df043bf02p+20, -0x1.3d4f58668db73p+20,
        -0x1.338b7533af979p+18, -0x1.ac592171211a6p+19}},
      {{-0x1.1ae585030a489p+2, 1116916, 996596, 36032, 12000, 19, 0},
       0x0p+0,
       {0x1.e19f06777e27cp+16, -0x1.594f7af77f6ebp+16, -0x1.991c62e1b76cfp+17,
        0x1.8f5079da0ce5ep+20, -0x1.5cc9df043bf02p+20, -0x1.3d4f58668db73p+20,
        -0x1.338b7533af979p+18, -0x1.ac592171211a6p+19}},
      {{-0x1.1ae585030a3e7p+2, 322196, 296596, 36032, 12000, 19, 0},
       0x0p+0,
       {0x1.e19f0676f53b8p+16, -0x1.594f7af76b98bp+16, -0x1.991c62e12660fp+17,
        0x1.8f5079d9cdc1dp+20, -0x1.5cc9df040387bp+20, -0x1.3d4f586665294p+20,
        -0x1.338b75338a0d1p+18, -0x1.ac592170ea801p+19}},
      // two-way, linreg, intercept on
      {{0x1.c708d7406cfa3p-3, 363629, 369485, 2, 0, 59, 38},
       0x1.ab9d2284866cep-2,
       {-0x1.115eda19e383fp-3, 0x1.8fdf08803add4p-5, 0x1.3217fd43dc39ap-5,
        0x1.0affb6db38352p-4, -0x1.5f75eb5b403c9p-10, 0x1.f50da67d7e659p-5,
        -0x1.440073dc6cf6bp-3, -0x1.e294eec776d4ap-6, -0x1.a74a53306c0d6p-3,
        0x1.2341c95811058p-1}},
      {{0x1.c708d7406cfa3p-3, 363629, 369485, 2, 0, 23, 0},
       0x1.ab9d2284866cep-2,
       {-0x1.115eda19e383fp-3, 0x1.8fdf08803add4p-5, 0x1.3217fd43dc39ap-5,
        0x1.0affb6db38352p-4, -0x1.5f75eb5b403c9p-10, 0x1.f50da67d7e659p-5,
        -0x1.440073dc6cf6bp-3, -0x1.e294eec776d4ap-6, -0x1.a74a53306c0d6p-3,
        0x1.2341c95811058p-1}},
      {{0x1.c708d7406d0dp-3, 114234, 101895, 2, 0, 23, 0},
       0x1.ab9d228486a08p-2,
       {-0x1.115eda19e3797p-3, 0x1.8fdf08803ae8ep-5, 0x1.3217fd43dc285p-5,
        0x1.0affb6db38dcbp-4, -0x1.5f75eb5b48dd8p-10, 0x1.f50da67d7f639p-5,
        -0x1.440073dc6cb18p-3, -0x1.e294eec77736p-6, -0x1.a74a53306bfb1p-3,
        0x1.2341c95810fe5p-1}},
      // two-way, linreg, intercept off
      {{0x1.d1f2014f98927p-3, 363507, 333386, 2, 0, 59, 38},
       0x0p+0,
       {-0x1.a574a0be20bf8p-4, 0x1.01d37438b9241p-4, 0x1.741bb2e601ebbp-6,
        0x1.c07a295603b7ap-6, 0x1.324000a3fde98p-4, 0x1.06d118ebe6e1ep-5,
        -0x1.58171db05c10ap-3, -0x1.99f8e5ba1a02bp-6, -0x1.b2d5fe571ae51p-3,
        0x1.248ed016aaf63p-1}},
      {{0x1.d1f2014f98927p-3, 363507, 333386, 2, 0, 23, 0},
       0x0p+0,
       {-0x1.a574a0be20bf8p-4, 0x1.01d37438b9241p-4, 0x1.741bb2e601ebbp-6,
        0x1.c07a295603b7ap-6, 0x1.324000a3fde98p-4, 0x1.06d118ebe6e1ep-5,
        -0x1.58171db05c10ap-3, -0x1.99f8e5ba1a02bp-6, -0x1.b2d5fe571ae51p-3,
        0x1.248ed016aaf63p-1}},
      {{0x1.d1f2014f98a5ep-3, 113882, 101366, 2, 0, 23, 0},
       0x0p+0,
       {-0x1.a574a0be20a45p-4, 0x1.01d37438b932dp-4, 0x1.741bb2e601a3fp-6,
        0x1.c07a29560610ap-6, 0x1.324000a3fe058p-4, 0x1.06d118ebe828fp-5,
        -0x1.58171db05bbfp-3, -0x1.99f8e5ba1aab5p-6, -0x1.b2d5fe571ad3ep-3,
        0x1.248ed016aaef3p-1}},
      // two-way, logreg, intercept on
      {{-0x1.6aa13ffd8f459p+4, 1753940, 1621368, 36044, 12000, 59, 38},
       -0x1.b8f919e64dbcfp+32,
       {-0x1.b83c575a22a38p+19, 0x1.f438f0d753154p+19, 0x1.11f4274e56be7p+20,
        0x1.a5b9e8e4f0db5p+21, 0x1.8b716ff7b0561p+20, 0x1.7a1749ee5bc8ap+21,
        -0x1.bb15ed0ebd73fp+22, -0x1.297413a4c7e18p+20, 0x1.9b9df010d457p+17,
        0x1.0d27367ad3fabp+21}},
      {{-0x1.6aa13ffd8f459p+4, 1753940, 1621368, 36044, 12000, 23, 0},
       -0x1.b8f919e64dbcfp+32,
       {-0x1.b83c575a22a38p+19, 0x1.f438f0d753154p+19, 0x1.11f4274e56be7p+20,
        0x1.a5b9e8e4f0db5p+21, 0x1.8b716ff7b0561p+20, 0x1.7a1749ee5bc8ap+21,
        -0x1.bb15ed0ebd73fp+22, -0x1.297413a4c7e18p+20, 0x1.9b9df010d457p+17,
        0x1.0d27367ad3fabp+21}},
      {{-0x1.6aa13ffd8f459p+4, 541280, 491928, 36044, 12000, 23, 0},
       -0x1.b8f919e64de1fp+32,
       {-0x1.b83c575a2245cp+19, 0x1.f438f0d753103p+19, 0x1.11f4274e56a15p+20,
        0x1.a5b9e8e4f0e71p+21, 0x1.8b716ff7b0892p+20, 0x1.7a1749ee5bc63p+21,
        -0x1.bb15ed0ebd80bp+22, -0x1.297413a4c7f95p+20, 0x1.9b9df010d3989p+17,
        0x1.0d27367ad4045p+21}},
      // two-way, logreg, intercept off
      {{-0x1.6b08f4cee87a2p+4, 1621544, 1477064, 36040, 12000, 59, 38},
       0x0p+0,
       {-0x1.ab676818ff04dp+22, 0x1.345f58531caf1p+21, 0x1.70399627bd5dfp+22,
        0x1.8cb03ae508476p+22, -0x1.d5c4befaec9bdp+21, 0x1.cc500d8f4581ap+22,
        -0x1.6d1945924a9bap+23, -0x1.f7db26cc9e694p+17, 0x1.7204b4d4eed2cp+21,
        0x1.6795dd0e4442fp+21}},
      {{-0x1.6b08f4cee87a2p+4, 1621544, 1477064, 36040, 12000, 23, 0},
       0x0p+0,
       {-0x1.ab676818ff04dp+22, 0x1.345f58531caf1p+21, 0x1.70399627bd5dfp+22,
        0x1.8cb03ae508476p+22, -0x1.d5c4befaec9bdp+21, 0x1.cc500d8f4581ap+22,
        -0x1.6d1945924a9bap+23, -0x1.f7db26cc9e694p+17, 0x1.7204b4d4eed2cp+21,
        0x1.6795dd0e4442fp+21}},
      {{-0x1.6b08f4cee87a2p+4, 539964, 489904, 36040, 12000, 23, 0},
       0x0p+0,
       {-0x1.ab676818ff1a2p+22, 0x1.345f58531cbcap+21, 0x1.70399627bd6ebp+22,
        0x1.8cb03ae5085bfp+22, -0x1.d5c4befaecb08p+21, 0x1.cc500d8f45976p+22,
        -0x1.6d1945924aac5p+23, -0x1.f7db26cc9e94fp+17, 0x1.7204b4d4eee61p+21,
        0x1.6795dd0e44545p+21}},
  };
  size_t next = 0;
  for (const bool multiway : {false, true}) {
    TempDir dir;
    BufferPool pool(512);
    auto spec = Spec(dir.str(), true);
    if (multiway) spec.attrs.push_back(data::AttributeSpec{15, 2});
    auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
    for (const bool logistic : {false, true}) {
      for (const bool intercept : {true, false}) {
        for (const auto algo : kAll) {
          SCOPED_TRACE(::testing::Message()
                       << (multiway ? "two-way " : "single ")
                       << (logistic ? "logreg " : "linreg ")
                       << (intercept ? "intercept" : "no-intercept"));
          const LinearGolden& g = golden[next++];
          pool.Clear();
          core::TrainReport report;
          if (logistic) {
            logreg::LogregOptions opt;
            opt.intercept = intercept;
            opt.kernels = la::KernelMode::kScalar;
            opt.batch_rows = 256;
            opt.temp_dir = dir.str();
            opt.threads = 1;
            auto m = core::TrainLogreg(rel, opt, algo, &pool, &report);
            ASSERT_TRUE(m.ok()) << m.status().ToString();
            ExpectLinearGolden(report, m.value(), g);
          } else {
            linreg::LinregOptions opt;
            opt.intercept = intercept;
            opt.kernels = la::KernelMode::kScalar;
            opt.batch_rows = 256;
            opt.temp_dir = dir.str();
            opt.threads = 1;
            auto m = core::TrainLinreg(rel, opt, algo, &pool, &report);
            ASSERT_TRUE(m.ok()) << m.status().ToString();
            ExpectLinearGolden(report, m.value(), g);
          }
        }
      }
    }
  }
  EXPECT_EQ(next, 24u);
}

// ------------------------------------------------------- linreg parity

class LinregParityTest : public ::testing::TestWithParam<int> {};

TEST_P(LinregParityTest, StrategiesAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = GetParam();

  linreg::LinregModel models[3];
  core::TrainReport reports[3];
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    auto m = core::TrainLinreg(rel, opt, kAll[a], &pool, &reports[a]);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    models[a] = std::move(m).value();
    EXPECT_EQ(reports[a].threads, GetParam());
    EXPECT_EQ(reports[a].iterations, 1);
  }
  EXPECT_EQ(reports[0].algorithm, "M-LINREG");
  EXPECT_EQ(reports[1].algorithm, "S-LINREG");
  EXPECT_EQ(reports[2].algorithm, "F-LINREG");
  // All strategies accumulate the same Gram/cofactor statistics; the
  // factorized path reorders the additions, hence the tolerance.
  EXPECT_LT(linreg::LinregModel::MaxAbsDiff(models[0], models[1]), 1e-8);
  EXPECT_LT(linreg::LinregModel::MaxAbsDiff(models[0], models[2]), 1e-6);
  EXPECT_NEAR(reports[0].final_objective, reports[2].final_objective,
              1e-6 * std::fabs(reports[0].final_objective) + 1e-12);
  // The factorization must pay: fewer multiplies than the dense paths.
  EXPECT_LT(reports[2].ops.mults, reports[1].ops.mults);
}

INSTANTIATE_TEST_SUITE_P(Threads, LinregParityTest, ::testing::Values(1, 4));

TEST(LinregTest, RecoversPlantedSignalBetterThanMean) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  core::TrainReport report;
  auto m = core::TrainLinreg(rel, opt, core::Algorithm::kFactorized, &pool,
                             &report);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->dims(), rel.total_dims());
  // The synthetic target depends on the joined features; a fitted ridge
  // model must beat the best constant predictor, whose half-MSE is
  // Var(y)/2 (Y is S feature column 0).
  double sum = 0.0, sum_sq = 0.0;
  storage::TableScanner scan(&rel.s, &pool, 4096);
  storage::RowBatch batch;
  while (scan.Next(&batch)) {
    for (size_t r = 0; r < batch.num_rows; ++r) {
      const double y = batch.feats(r, 0);
      sum += y;
      sum_sq += y * y;
    }
  }
  ASSERT_TRUE(scan.status().ok());
  const double n = static_cast<double>(rel.s.num_rows());
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_GT(report.final_objective, 0.0);
  EXPECT_LT(report.final_objective, 0.9 * var / 2.0);
}

TEST(LinregTest, ParallelMatchesSerial) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  for (const auto algo : kAll) {
    opt.threads = 1;
    pool.Clear();
    auto serial = core::TrainLinreg(rel, opt, algo, &pool, nullptr);
    ASSERT_TRUE(serial.ok());
    opt.threads = 4;
    pool.Clear();
    auto parallel = core::TrainLinreg(rel, opt, algo, &pool, nullptr);
    ASSERT_TRUE(parallel.ok());
    EXPECT_LT(linreg::LinregModel::MaxAbsDiff(serial.value(),
                                              parallel.value()),
              1e-8)
        << core::AlgorithmName(algo);
  }
}

TEST(LinregTest, RequiresTarget) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  linreg::LinregOptions opt;
  opt.temp_dir = dir.str();
  auto m = core::TrainLinreg(rel, opt, core::Algorithm::kStreaming, &pool,
                             nullptr);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST(LinregTest, RejectsInvalidOptions) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  const std::vector<std::pair<std::string, void (*)(linreg::LinregOptions*)>>
      cases = {
          {"--l2", [](linreg::LinregOptions* o) { o->l2 = -1.0; }},
          {"--l2", [](linreg::LinregOptions* o) { o->l2 = NAN; }},
          {"--l2", [](linreg::LinregOptions* o) { o->l2 = INFINITY; }},
          {"--batch", [](linreg::LinregOptions* o) { o->batch_rows = 0; }},
      };
  for (const auto& [option, mutate] : cases) {
    linreg::LinregOptions opt;
    opt.temp_dir = dir.str();
    mutate(&opt);
    ExpectRejectedEverywhere(rel, &pool, opt, core::TrainLinreg, option);
  }
}

// ------------------------------------------------------- kmeans parity

class KmeansParityTest : public ::testing::TestWithParam<int> {};

TEST_P(KmeansParityTest, StrategiesAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 5;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = GetParam();

  kmeans::KmeansModel models[3];
  core::TrainReport reports[3];
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    auto m = core::TrainKmeans(rel, opt, kAll[a], &pool, &reports[a]);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    models[a] = std::move(m).value();
    EXPECT_EQ(reports[a].iterations, 5);
  }
  EXPECT_EQ(reports[0].algorithm, "M-KMEANS");
  EXPECT_EQ(reports[2].algorithm, "F-KMEANS");
  EXPECT_LT(kmeans::KmeansModel::MaxAbsDiff(models[0], models[1]), 1e-9);
  EXPECT_LT(kmeans::KmeansModel::MaxAbsDiff(models[0], models[2]), 1e-7);
  EXPECT_NEAR(reports[0].final_objective, reports[2].final_objective,
              1e-7 * std::fabs(reports[0].final_objective));
  // Cluster sizes of the final assignment must agree exactly.
  for (int a = 1; a < 3; ++a) {
    ASSERT_EQ(models[a].counts.size(), models[0].counts.size());
    for (size_t c = 0; c < models[0].counts.size(); ++c) {
      EXPECT_EQ(models[a].counts[c], models[0].counts[c]);
    }
  }
  // The factorization must pay: fewer multiplies than the streamed path.
  EXPECT_LT(reports[2].ops.mults, reports[1].ops.mults);
}

INSTANTIATE_TEST_SUITE_P(Threads, KmeansParityTest, ::testing::Values(1, 4));

TEST(KmeansTest, InertiaDecreasesAcrossIterations) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  core::TrainReport r1, r5;
  opt.max_iters = 1;
  auto m1 = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized, &pool,
                              &r1);
  ASSERT_TRUE(m1.ok());
  opt.max_iters = 5;
  auto m5 = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized, &pool,
                              &r5);
  ASSERT_TRUE(m5.ok());
  EXPECT_LE(r5.final_objective, r1.final_objective);
  EXPECT_GT(r5.final_objective, 0.0);
}

TEST(KmeansTest, ToleranceStopsEarly) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 50;
  opt.tol = 1e-6;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  core::TrainReport report;
  auto m = core::TrainKmeans(rel, opt, core::Algorithm::kStreaming, &pool,
                             &report);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(report.iterations, 50);
}

TEST(KmeansTest, RejectsZeroClusters) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 0;
  opt.temp_dir = dir.str();
  for (const auto algo : kAll) {
    auto m = core::TrainKmeans(rel, opt, algo, &pool, nullptr);
    EXPECT_FALSE(m.ok()) << core::AlgorithmName(algo);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KmeansTest, MultiwayFactorizedMatches) {
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), false);
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 4;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  auto m = core::TrainKmeans(rel, opt, core::Algorithm::kMaterialized, &pool,
                             nullptr);
  auto f = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized, &pool,
                             nullptr);
  ASSERT_TRUE(m.ok() && f.ok());
  EXPECT_LT(kmeans::KmeansModel::MaxAbsDiff(m.value(), f.value()), 1e-7);
}

// -------------------------------------- chunk-ordered scheduler parity
//
// The chunk-ordered determinism contract: with --morsel-rows set, the
// full-pass plan is a fixed chunk list (a data invariant), every chunk
// owns accumulator slot = its chunk id, and the reduction merges in chunk
// order — so the thread count and the steal schedule can change who
// computes a chunk but never what is merged. These runs must therefore be
// bit-identical, not merely close. (The randomized fuzz_parity_test
// stresses the same property across random schemas; these fixed cases run
// in tier1 and under TSan.)

template <typename Report>
void ExpectBitIdentical(const Report& a, const Report& b,
                        const char* what) {
  EXPECT_EQ(a.final_objective, b.final_objective) << what;
  EXPECT_EQ(a.ops.mults, b.ops.mults) << what;
  EXPECT_EQ(a.ops.adds, b.ops.adds) << what;
  EXPECT_EQ(a.ops.subs, b.ops.subs) << what;
  EXPECT_EQ(a.ops.exps, b.ops.exps) << what;
}

TEST(StealingParityTest, GmmChunkedScheduleInvariant) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;  // ~15 chunks over 3000 rows
  opt.temp_dir = dir.str();
  for (const auto algo : kAll) {
    opt.threads = 1;
    opt.steal = false;
    pool.Clear();
    core::TrainReport base_report;
    auto base = core::TrainGmm(rel, opt, algo, &pool, &base_report);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_GT(base_report.morsel_chunks, 1);
    for (const auto& [threads, steal] :
         {std::tuple{4, false}, std::tuple{1, true}, std::tuple{4, true}}) {
      opt.threads = threads;
      opt.steal = steal;
      pool.Clear();
      core::TrainReport report;
      auto params = core::TrainGmm(rel, opt, algo, &pool, &report);
      ASSERT_TRUE(params.ok()) << params.status().ToString();
      ExpectBitIdentical(report, base_report, core::AlgorithmName(algo));
      EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base.value(), params.value()),
                0.0)
          << core::AlgorithmName(algo) << " threads=" << threads
          << " steal=" << steal;
    }
  }
}

TEST(StealingParityTest, LinregKmeansChunkedScheduleInvariant) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  for (const auto algo : kAll) {
    linreg::LinregOptions lopt;
    lopt.batch_rows = 256;
    lopt.morsel_rows = 128;
    lopt.temp_dir = dir.str();
    lopt.threads = 1;
    pool.Clear();
    core::TrainReport lbase_report;
    auto lbase = core::TrainLinreg(rel, lopt, algo, &pool, &lbase_report);
    ASSERT_TRUE(lbase.ok());
    kmeans::KmeansOptions kopt;
    kopt.num_clusters = 3;
    kopt.max_iters = 3;
    kopt.batch_rows = 256;
    kopt.morsel_rows = 128;
    kopt.temp_dir = dir.str();
    kopt.threads = 1;
    pool.Clear();
    core::TrainReport kbase_report;
    auto kbase = core::TrainKmeans(rel, kopt, algo, &pool, &kbase_report);
    ASSERT_TRUE(kbase.ok());
    for (const bool steal : {false, true}) {
      lopt.threads = 4;
      lopt.steal = steal;
      pool.Clear();
      core::TrainReport lr;
      auto lm = core::TrainLinreg(rel, lopt, algo, &pool, &lr);
      ASSERT_TRUE(lm.ok());
      ExpectBitIdentical(lr, lbase_report, "linreg");
      EXPECT_EQ(linreg::LinregModel::MaxAbsDiff(lbase.value(), lm.value()),
                0.0);
      kopt.threads = 4;
      kopt.steal = steal;
      pool.Clear();
      core::TrainReport kr;
      auto km = core::TrainKmeans(rel, kopt, algo, &pool, &kr);
      ASSERT_TRUE(km.ok());
      ExpectBitIdentical(kr, kbase_report, "kmeans");
      EXPECT_EQ(kmeans::KmeansModel::MaxAbsDiff(kbase.value(), km.value()),
                0.0);
    }
  }
}

TEST(StealingParityTest, SingleGiantRunStillBalancesAndMatches) {
  // One run carries nearly every fact row: the worst case for static run
  // morsels ("runs longer than a chunk"). The giant run is atomic — it
  // becomes one chunk — and results stay schedule-invariant.
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), false);
  spec.run_dist = data::RunDist::kSingleGiant;
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.morsel_rows = 64;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  pool.Clear();
  core::TrainReport base_report;
  auto base = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized,
                                &pool, &base_report);
  ASSERT_TRUE(base.ok());
  opt.threads = 4;
  opt.steal = true;
  pool.Clear();
  core::TrainReport report;
  auto stolen = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized,
                                  &pool, &report);
  ASSERT_TRUE(stolen.ok());
  ExpectBitIdentical(report, base_report, "giant-run kmeans");
  EXPECT_EQ(kmeans::KmeansModel::MaxAbsDiff(base.value(), stolen.value()),
            0.0);
  EXPECT_EQ(report.morsel_chunks, base_report.morsel_chunks);
  EXPECT_EQ(report.worker_busy_seconds.size(), 4u);
}

TEST(StealingParityTest, StealWithoutMorselRowsUsesDefaultChunking) {
  // --steal=on alone must resolve to the default chunk size rather than
  // silently running the legacy static partition.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.temp_dir = dir.str();
  opt.threads = 2;
  opt.steal = true;
  core::TrainReport report;
  auto m = core::TrainLinreg(rel, opt, core::Algorithm::kStreaming, &pool,
                             &report);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(report.morsel_chunks, 0);
}

// ------------------------------------------------------- logreg parity

class LogregParityTest : public ::testing::TestWithParam<int> {};

TEST_P(LogregParityTest, StrategiesAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  logreg::LogregOptions opt;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = GetParam();

  logreg::LogregModel models[3];
  core::TrainReport reports[3];
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    auto m = core::TrainLogreg(rel, opt, kAll[a], &pool, &reports[a]);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    models[a] = std::move(m).value();
    EXPECT_EQ(reports[a].threads, GetParam());
    EXPECT_EQ(reports[a].iterations, 3);
  }
  EXPECT_EQ(reports[0].algorithm, "M-LOGREG");
  EXPECT_EQ(reports[1].algorithm, "S-LOGREG");
  EXPECT_EQ(reports[2].algorithm, "F-LOGREG");
  // All strategies run the identical IRLS recurrence; the factorized path
  // reorders the weighted accumulation, hence the tolerance.
  EXPECT_LT(logreg::LogregModel::MaxAbsDiff(models[0], models[1]), 1e-8);
  EXPECT_LT(logreg::LogregModel::MaxAbsDiff(models[0], models[2]), 1e-5);
  EXPECT_NEAR(reports[0].final_objective, reports[2].final_objective,
              1e-6 * std::fabs(reports[0].final_objective) + 1e-12);
  // The factorization must pay: fewer multiplies than the dense paths.
  EXPECT_LT(reports[2].ops.mults, reports[1].ops.mults);
}

INSTANTIATE_TEST_SUITE_P(Threads, LogregParityTest, ::testing::Values(1, 4));

TEST(LogregTest, SeparatesTargetByPredictedProbability) {
  // The synthetic target is continuous; a fitted soft-label logistic
  // model must still order the rows: the mean target of rows it scores
  // above its median probability has to exceed the mean below.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  logreg::LogregOptions opt;
  opt.max_iters = 4;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  core::TrainReport report;
  auto m = core::TrainLogreg(rel, opt, core::Algorithm::kFactorized, &pool,
                             &report);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->dims(), rel.total_dims());

  auto joined = core::pipeline::AssembleJoinedRows(
      rel, &pool, [&] {
        std::vector<int64_t> rows(static_cast<size_t>(rel.s.num_rows()));
        for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
        return rows;
      }());
  ASSERT_TRUE(joined.ok());
  storage::RowBatch batch;
  ASSERT_TRUE(
      rel.s.ReadRows(&pool, 0, static_cast<size_t>(rel.s.num_rows()), &batch)
          .ok());
  std::vector<double> probs(batch.num_rows);
  for (size_t r = 0; r < batch.num_rows; ++r) {
    probs[r] = m->PredictProb(joined->Row(r).data());
  }
  std::vector<double> sorted = probs;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  double hi_sum = 0.0, lo_sum = 0.0;
  int hi_n = 0, lo_n = 0;
  for (size_t r = 0; r < batch.num_rows; ++r) {
    const double y = batch.feats(r, 0);
    if (probs[r] > median) {
      hi_sum += y;
      ++hi_n;
    } else {
      lo_sum += y;
      ++lo_n;
    }
  }
  ASSERT_GT(hi_n, 0);
  ASSERT_GT(lo_n, 0);
  EXPECT_GT(hi_sum / hi_n, lo_sum / lo_n);
}

TEST(LogregTest, RequiresTargetAndValidOptions) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  logreg::LogregOptions opt;
  opt.temp_dir = dir.str();
  auto m = core::TrainLogreg(rel, opt, core::Algorithm::kStreaming, &pool,
                             nullptr);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);

  auto rel_t =
      std::move(GenerateSynthetic(
                    [&] {
                      auto s = Spec(dir.str(), true);
                      s.name = "t2";
                      return s;
                    }(),
                    &pool))
          .value();
  opt.max_iters = 0;
  auto bad = core::TrainLogreg(rel_t, opt, core::Algorithm::kStreaming, &pool,
                               nullptr);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Non-finite or negative l2 used to reach the Cholesky solve; a NaN tol
  // used to run every iteration and succeed; batch_rows = 0 used to abort.
  const std::vector<std::pair<std::string, void (*)(logreg::LogregOptions*)>>
      cases = {
          {"--l2", [](logreg::LogregOptions* o) { o->l2 = -1.0; }},
          {"--l2", [](logreg::LogregOptions* o) { o->l2 = NAN; }},
          {"--l2", [](logreg::LogregOptions* o) { o->l2 = INFINITY; }},
          {"--tol", [](logreg::LogregOptions* o) { o->tol = NAN; }},
          {"--tol", [](logreg::LogregOptions* o) { o->tol = -INFINITY; }},
          {"--batch", [](logreg::LogregOptions* o) { o->batch_rows = 0; }},
      };
  for (const auto& [option, mutate] : cases) {
    logreg::LogregOptions o;
    o.temp_dir = dir.str();
    mutate(&o);
    ExpectRejectedEverywhere(rel_t, &pool, o, core::TrainLogreg, option);
  }
}

// `rel` with every S target cell y of row r replaced by relabel(r, y): the
// same attribute tables, a rewritten S table at `s_path`.
template <typename Relabel>
join::NormalizedRelations WithTargets(const join::NormalizedRelations& rel,
                                      Relabel relabel,
                                      const std::string& s_path,
                                      BufferPool* pool) {
  storage::RowBatch rows;
  FML_CHECK(rel.s.ReadRows(pool, 0, static_cast<size_t>(rel.s.num_rows()),
                           &rows)
                .ok());
  auto s = std::move(storage::Table::Create(s_path, rel.s.schema())).value();
  for (size_t r = 0; r < rows.num_rows; ++r) {
    rows.feats(r, 0) = relabel(r, rows.feats(r, 0));
    FML_CHECK(s.Append(rows.KeysOf(r), rows.feats.Row(r).data()).ok());
  }
  FML_CHECK(s.Finish().ok());
  std::vector<storage::Table> attrs;
  for (const auto& a : rel.attrs) {
    attrs.push_back(std::move(storage::Table::Open(a.path())).value());
  }
  join::NormalizedRelations out(std::move(s), std::move(attrs), true);
  FML_CHECK(out.BuildIndex(pool).ok());
  return out;
}

TEST(LinearFamiliesTest, NonFiniteTargetIsOutOfRange) {
  // A nan or inf target cell used to end linreg with objective=nan and
  // logreg with a misleading Cholesky failure. Both now stop before the
  // solve with OutOfRange naming the family, the iteration and the pass,
  // on every strategy and kernel plane.
  TempDir dir;
  BufferPool pool(512);
  auto base =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  for (const double bad : {NAN, INFINITY}) {
    auto rel = WithTargets(
        base, [&](size_t r, double y) { return r == 17 ? bad : y; },
        dir.str() + "/s_bad.fml", &pool);
    for (const auto kernels :
         {la::KernelMode::kScalar, la::KernelMode::kSimd}) {
      for (const auto algo : kAll) {
        const std::string tag = std::string(core::AlgorithmName(algo)) +
                                " target=" + std::to_string(bad) + " " +
                                la::KernelModeName(kernels);
        linreg::LinregOptions lopt;
        lopt.temp_dir = dir.str();
        lopt.kernels = kernels;
        pool.Clear();
        auto lm = core::TrainLinreg(rel, lopt, algo, &pool, nullptr);
        ASSERT_FALSE(lm.ok()) << tag;
        EXPECT_EQ(lm.status().code(), StatusCode::kOutOfRange) << tag;
        EXPECT_EQ(lm.status().message(),
                  "LINREG: normal equations are not finite after iteration "
                  "1 of 1 (gram pass; check the data for nan/inf cells)")
            << tag;

        logreg::LogregOptions gopt;
        gopt.temp_dir = dir.str();
        gopt.kernels = kernels;
        gopt.max_iters = 3;
        pool.Clear();
        auto gm = core::TrainLogreg(rel, gopt, algo, &pool, nullptr);
        ASSERT_FALSE(gm.ok()) << tag;
        EXPECT_EQ(gm.status().code(), StatusCode::kOutOfRange) << tag;
        EXPECT_EQ(gm.status().message(),
                  "LOGREG: normal equations are not finite after iteration "
                  "1 of 3 (irls pass; check the data for nan/inf cells)")
            << tag;
      }
    }
  }
}

TEST(GmmTest, RejectsInvalidOptions) {
  // Out-of-range hyperparameters are InvalidArgument before any pass runs,
  // on every strategy: no component count the S rows cannot seed, and no
  // zero-iteration run reporting a -inf objective.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  const size_t s_rows = static_cast<size_t>(rel.s.num_rows());
  for (const auto algo : kAll) {
    for (const auto& [k, iters] :
         {std::pair<size_t, int>{0, 2}, {s_rows + 1, 2}, {SIZE_MAX, 2},
          {3, 0}, {3, -1}}) {
      gmm::GmmOptions opt;
      opt.num_components = k;
      opt.max_iters = iters;
      opt.temp_dir = dir.str();
      auto m = core::TrainGmm(rel, opt, algo, &pool, nullptr);
      ASSERT_FALSE(m.ok()) << "k=" << k << " iters=" << iters;
      EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // A NaN tol used to run every iteration and exit 0; cov_reg has no
  // flag, so its message names the field.
  const std::vector<std::pair<std::string, void (*)(gmm::GmmOptions*)>>
      cases = {
          {"--tol", [](gmm::GmmOptions* o) { o->tol = NAN; }},
          {"--tol", [](gmm::GmmOptions* o) { o->tol = INFINITY; }},
          {"cov_reg", [](gmm::GmmOptions* o) { o->cov_reg = -1e-6; }},
          {"cov_reg", [](gmm::GmmOptions* o) { o->cov_reg = NAN; }},
          {"--batch", [](gmm::GmmOptions* o) { o->batch_rows = 0; }},
      };
  for (const auto& [option, mutate] : cases) {
    gmm::GmmOptions opt;
    opt.num_components = 3;
    opt.max_iters = 2;
    opt.temp_dir = dir.str();
    mutate(&opt);
    ExpectRejectedEverywhere(rel, &pool, opt, core::TrainGmm, option);
  }
}

TEST(KmeansTest, RejectsNonPositiveIterations) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  for (const auto algo : kAll) {
    for (const int iters : {0, -3}) {
      kmeans::KmeansOptions opt;
      opt.num_clusters = 3;
      opt.max_iters = iters;
      opt.temp_dir = dir.str();
      auto m = core::TrainKmeans(rel, opt, algo, &pool, nullptr);
      ASSERT_FALSE(m.ok()) << "iters=" << iters;
      EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
    }
  }
  const std::vector<std::pair<std::string, void (*)(kmeans::KmeansOptions*)>>
      cases = {
          {"--tol", [](kmeans::KmeansOptions* o) { o->tol = NAN; }},
          {"--batch", [](kmeans::KmeansOptions* o) { o->batch_rows = 0; }},
      };
  for (const auto& [option, mutate] : cases) {
    kmeans::KmeansOptions opt;
    opt.num_clusters = 3;
    opt.temp_dir = dir.str();
    mutate(&opt);
    ExpectRejectedEverywhere(rel, &pool, opt, core::TrainKmeans, option);
  }
}

// --------------------------------------------- prefetch residency-only
//
// The I/O cursor plane's extended determinism contract: prefetch changes
// page residency, never values, op counts, or merge order. A prefetched
// run must therefore be bit-identical to the demand-only baseline under
// every thread count and steal schedule, while the demand-only run keeps
// the exact page-I/O counts the seed goldens pin.

TEST(PrefetchParityTest, GmmPrefetchedRunsAreBitIdentical) {
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
  uint64_t prefetch_reads_total = 0;
  for (const auto algo : kAll) {
    opt.threads = 1;
    opt.steal = false;
    opt.prefetch = false;
    pool.Clear();
    core::TrainReport base_report;
    auto base = core::TrainGmm(rel, opt, algo, &pool, &base_report);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(base_report.io.prefetch_reads, 0u);
    EXPECT_EQ(base_report.io.prefetch_hits, 0u);
    opt.prefetch = true;
    for (const auto& [threads, steal] :
         {std::tuple{1, false}, std::tuple{2, true}, std::tuple{4, false},
          std::tuple{4, true}}) {
      opt.threads = threads;
      opt.steal = steal;
      pool.Clear();
      core::TrainReport report;
      auto params = core::TrainGmm(rel, opt, algo, &pool, &report);
      ASSERT_TRUE(params.ok()) << params.status().ToString();
      ExpectBitIdentical(report, base_report, core::AlgorithmName(algo));
      EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base.value(), params.value()),
                0.0)
          << core::AlgorithmName(algo) << " threads=" << threads
          << " steal=" << steal << " prefetch=on";
      prefetch_reads_total += report.io.prefetch_reads;
    }
  }
  // The plane must actually have engaged, or the parity above is vacuous.
  // Any single run may lose every crew-vs-demand race on a loaded box,
  // but across 12 prefetched runs the crew lands pages.
  EXPECT_GT(prefetch_reads_total, 0u)
      << "--prefetch=on never issued an async read: wiring regression?";
}

TEST(PrefetchParityTest, LegacyPartitionPrefetchMatchesToo) {
  // Prefetch without chunking: the in-range double buffer alone (no
  // next-chunk plan). Same bits as the demand-only static partition.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 2;
  pool.Clear();
  core::TrainReport base_report;
  auto base = core::TrainLinreg(rel, opt, core::Algorithm::kMaterialized,
                                &pool, &base_report);
  ASSERT_TRUE(base.ok());
  opt.prefetch = true;
  opt.prefetch_depth = 3;
  pool.Clear();
  core::TrainReport report;
  auto pf = core::TrainLinreg(rel, opt, core::Algorithm::kMaterialized,
                              &pool, &report);
  ASSERT_TRUE(pf.ok());
  ExpectBitIdentical(report, base_report, "legacy prefetch linreg");
  EXPECT_EQ(linreg::LinregModel::MaxAbsDiff(base.value(), pf.value()), 0.0);
}

// --------------------------------------------------- shard-plane parity
//
// The sharded rid-range execution plane's determinism contract: shard =
// contiguous span of the fixed chunk plan, slot = global chunk id, each
// shard's slots round-trip through serialized ShardDelta bytes, and the
// deltas merge in shard-id (= global chunk) order. Objectives, params and
// op counts are therefore bit-identical to --shards=1 at the same morsel
// size under ANY threads x steal x prefetch schedule; and because the
// in-process backend time-shares the unsharded run's worker pools with
// global chunk ownership (exec::RunMorselSpan), total page I/O is ALSO
// bit-identical whenever the schedule itself is I/O-deterministic (steal
// and prefetch off — stealing re-homes chunks into thief pools and
// prefetch races the crew, so those counters are not schedule-stable even
// at shards=1). The randomized fuzz_parity_test stresses the same
// contract across random schemas; these fixed cases run in tier1 and
// under TSan.

TEST(ShardParityTest, GmmShardedBitIdenticalIncludingPageIo) {
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
  for (const auto algo : kAll) {
    for (const int threads : {1, 4}) {
      opt.threads = threads;
      opt.shards = 1;
      pool.Clear();
      core::TrainReport base_report;
      auto base = core::TrainGmm(rel, opt, algo, &pool, &base_report);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      EXPECT_EQ(base_report.shards, 1);
      EXPECT_TRUE(base_report.shard_stats.empty());
      for (const int shards : {2, 4}) {
        opt.shards = shards;
        pool.Clear();
        core::TrainReport report;
        auto params = core::TrainGmm(rel, opt, algo, &pool, &report);
        ASSERT_TRUE(params.ok()) << params.status().ToString();
        const std::string tag = std::string(core::AlgorithmName(algo)) +
                                " threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
        ExpectBitIdentical(report, base_report, tag.c_str());
        EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base.value(), params.value()),
                  0.0)
            << tag;
        // Deterministic schedule (steal/prefetch off): the time-shared
        // backend replays the unsharded per-pool page-request sequences,
        // so the whole I/O split matches bit for bit.
        EXPECT_EQ(report.io.pages_read, base_report.io.pages_read) << tag;
        EXPECT_EQ(report.io.pages_written, base_report.io.pages_written)
            << tag;
        EXPECT_EQ(report.io.pool_hits, base_report.io.pool_hits) << tag;
        EXPECT_EQ(report.io.pool_misses, base_report.io.pool_misses) << tag;
        // Effective shard count and spans are recorded and cover the plan.
        EXPECT_EQ(report.shards, shards);
        ASSERT_EQ(report.shard_stats.size(), static_cast<size_t>(shards));
        EXPECT_EQ(report.shard_stats.front().chunk_begin, 0);
        EXPECT_EQ(report.shard_stats.back().chunk_end, report.morsel_chunks);
      }
    }
  }
}

TEST(ShardParityTest, ShardedSchedulesStayBitIdentical) {
  // Sharding composed with stealing and prefetch: who executes a chunk
  // (and when its pages land) may change, what is merged never does.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  struct Sched {
    int shards, threads;
    bool steal, prefetch;
  };
  constexpr Sched kScheds[] = {{3, 4, true, false},
                               {2, 2, false, true},
                               {4, 1, true, false},
                               {2, 4, true, true}};
  for (const auto algo : kAll) {
    linreg::LinregOptions lopt;
    lopt.batch_rows = 256;
    lopt.morsel_rows = 128;
    lopt.temp_dir = dir.str();
    lopt.threads = 1;
    pool.Clear();
    core::TrainReport lbase_report;
    auto lbase = core::TrainLinreg(rel, lopt, algo, &pool, &lbase_report);
    ASSERT_TRUE(lbase.ok());
    logreg::LogregOptions gopt;
    gopt.max_iters = 2;
    gopt.batch_rows = 256;
    gopt.morsel_rows = 128;
    gopt.temp_dir = dir.str();
    gopt.threads = 1;
    pool.Clear();
    core::TrainReport gbase_report;
    auto gbase = core::TrainLogreg(rel, gopt, algo, &pool, &gbase_report);
    ASSERT_TRUE(gbase.ok());
    for (const Sched& sched : kScheds) {
      lopt.shards = sched.shards;
      lopt.threads = sched.threads;
      lopt.steal = sched.steal;
      lopt.prefetch = sched.prefetch;
      pool.Clear();
      core::TrainReport lr;
      auto lm = core::TrainLinreg(rel, lopt, algo, &pool, &lr);
      ASSERT_TRUE(lm.ok());
      ExpectBitIdentical(lr, lbase_report, "sharded linreg");
      EXPECT_EQ(linreg::LinregModel::MaxAbsDiff(lbase.value(), lm.value()),
                0.0)
          << core::AlgorithmName(algo) << " shards=" << sched.shards;
      gopt.shards = sched.shards;
      gopt.threads = sched.threads;
      gopt.steal = sched.steal;
      gopt.prefetch = sched.prefetch;
      pool.Clear();
      core::TrainReport gr;
      auto gm = core::TrainLogreg(rel, gopt, algo, &pool, &gr);
      ASSERT_TRUE(gm.ok());
      ExpectBitIdentical(gr, gbase_report, "sharded logreg");
      EXPECT_EQ(logreg::LogregModel::MaxAbsDiff(gbase.value(), gm.value()),
                0.0)
          << core::AlgorithmName(algo) << " shards=" << sched.shards;
    }
  }
}

TEST(ShardParityTest, ShardsExceedChunksAndGiantRunStayExact) {
  // "shards > rows" and the single-giant-FK1-run worst case: requesting
  // far more shards than the plan has chunks caps the effective count at
  // one chunk per shard (no empty shard ever scans), and the giant run —
  // atomic, one chunk — stays bit-exact through its own shard's delta.
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), false);
  spec.run_dist = data::RunDist::kSingleGiant;
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.morsel_rows = 64;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  pool.Clear();
  core::TrainReport base_report;
  auto base = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized,
                                &pool, &base_report);
  ASSERT_TRUE(base.ok());
  ASSERT_GT(base_report.morsel_chunks, 1);
  opt.shards = 64;  // far beyond the chunk count
  opt.threads = 4;
  opt.steal = true;
  pool.Clear();
  core::TrainReport report;
  auto sharded = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized,
                                   &pool, &report);
  ASSERT_TRUE(sharded.ok());
  ExpectBitIdentical(report, base_report, "over-sharded giant-run kmeans");
  EXPECT_EQ(kmeans::KmeansModel::MaxAbsDiff(base.value(), sharded.value()),
            0.0);
  EXPECT_EQ(report.shards, static_cast<int>(report.morsel_chunks));
  ASSERT_EQ(report.shard_stats.size(), static_cast<size_t>(report.shards));
  for (const auto& stat : report.shard_stats) {
    EXPECT_EQ(stat.chunk_end, stat.chunk_begin + 1);
  }
}

TEST(ShardParityTest, ShardsAloneResolveDefaultChunking) {
  // --shards=N without --morsel-rows must resolve to the default chunk
  // size (like --steal), not silently run the legacy static partition.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.temp_dir = dir.str();
  opt.threads = 2;
  opt.shards = 2;
  core::TrainReport report;
  auto m = core::TrainLinreg(rel, opt, core::Algorithm::kStreaming, &pool,
                             &report);
  ASSERT_TRUE(m.ok());
  // Chunked mode engaged (the 3000-row dataset fits one default-size
  // chunk, so the effective shard count caps at the chunk count).
  EXPECT_GT(report.morsel_chunks, 0);
  EXPECT_EQ(report.shards,
            static_cast<int>(std::min<int64_t>(2, report.morsel_chunks)));
}

TEST(ShardParityTest, MiniBatchFamilyRejectsShards) {
  // The SGD plane's epochs are sequential: no order-free merge exists, so
  // sharding must be rejected up front with a clear error.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  nn::NnOptions opt;
  opt.hidden = {8};
  opt.epochs = 1;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  opt.shards = 2;
  auto mlp = core::TrainNn(rel, opt, core::Algorithm::kStreaming, &pool,
                           nullptr);
  EXPECT_FALSE(mlp.ok());
  EXPECT_EQ(mlp.status().code(), StatusCode::kInvalidArgument);
  opt.shards = 1;
  auto ok = core::TrainNn(rel, opt, core::Algorithm::kStreaming, &pool,
                          nullptr);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// ------------------------------------------------------ kernels parity

// --kernels=simd may only change floating-point summation order inside a
// strip. Everything else the determinism contract pins — op counts
// (charged per batch with the scalar per-row formulas) and the page-I/O
// stream of all three access drivers — must match the scalar plane
// exactly under every schedule; objectives and parameters agree to
// tolerance.

template <typename Report>
void ExpectSameWorkStream(const Report& simd, const Report& scalar,
                          const std::string& what) {
  EXPECT_EQ(simd.ops.mults, scalar.ops.mults) << what;
  EXPECT_EQ(simd.ops.adds, scalar.ops.adds) << what;
  EXPECT_EQ(simd.ops.subs, scalar.ops.subs) << what;
  EXPECT_EQ(simd.ops.exps, scalar.ops.exps) << what;
  EXPECT_EQ(simd.io.pages_read, scalar.io.pages_read) << what;
  EXPECT_EQ(simd.io.pages_written, scalar.io.pages_written) << what;
  EXPECT_EQ(simd.io.pool_hits, scalar.io.pool_hits) << what;
  EXPECT_EQ(simd.io.pool_misses, scalar.io.pool_misses) << what;
}

class KernelsParityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KernelsParityTest, LinregSimdMatchesScalarWorkStream) {
  const auto [threads, shards] = GetParam();
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = dir.str();
  opt.threads = threads;
  opt.shards = shards;
  for (const auto algo : kAll) {
    opt.kernels = la::KernelMode::kScalar;
    pool.Clear();
    core::TrainReport scalar_report;
    auto scalar = core::TrainLinreg(rel, opt, algo, &pool, &scalar_report);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    opt.kernels = la::KernelMode::kSimd;
    pool.Clear();
    core::TrainReport simd_report;
    auto simd = core::TrainLinreg(rel, opt, algo, &pool, &simd_report);
    ASSERT_TRUE(simd.ok()) << simd.status().ToString();
    const std::string tag = std::string(core::AlgorithmName(algo)) +
                            " threads=" + std::to_string(threads) +
                            " shards=" + std::to_string(shards);
    ExpectSameWorkStream(simd_report, scalar_report, tag);
    EXPECT_NEAR(simd_report.final_objective, scalar_report.final_objective,
                1e-9 * std::fabs(scalar_report.final_objective) + 1e-12)
        << tag;
    EXPECT_LT(linreg::LinregModel::MaxAbsDiff(scalar.value(), simd.value()),
              1e-8)
        << tag;
  }
}

TEST_P(KernelsParityTest, GmmSimdMatchesScalarWorkStream) {
  const auto [threads, shards] = GetParam();
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
  opt.threads = threads;
  opt.shards = shards;
  for (const auto algo : kAll) {
    opt.kernels = la::KernelMode::kScalar;
    pool.Clear();
    core::TrainReport scalar_report;
    auto scalar = core::TrainGmm(rel, opt, algo, &pool, &scalar_report);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    opt.kernels = la::KernelMode::kSimd;
    pool.Clear();
    core::TrainReport simd_report;
    auto simd = core::TrainGmm(rel, opt, algo, &pool, &simd_report);
    ASSERT_TRUE(simd.ok()) << simd.status().ToString();
    const std::string tag = std::string(core::AlgorithmName(algo)) +
                            " threads=" + std::to_string(threads) +
                            " shards=" + std::to_string(shards);
    ExpectSameWorkStream(simd_report, scalar_report, tag);
    // The E-step exp() stream is evaluated row-at-a-time on both planes,
    // so even the exp count — the costliest op — matches exactly (checked
    // above); the log-likelihood itself only moves by summation order.
    EXPECT_NEAR(simd_report.final_objective, scalar_report.final_objective,
                1e-9 * std::fabs(scalar_report.final_objective) + 1e-12)
        << tag;
    EXPECT_LT(gmm::GmmParams::MaxAbsDiff(scalar.value(), simd.value()),
              1e-7)
        << tag;
  }
}

// A `tables`-way schema (2 or 3) whose single giant FK1 run is far longer
// than a strip, a morsel chunk and a shard span: the factorized strip
// path's run reductions must be clipped at every one of those boundaries.
// The third table adds the per-tuple R2 x R3 cross block.
data::SyntheticSpec MultiwayGiantRunSpec(const std::string& dir,
                                         size_t tables) {
  auto spec = Spec(dir, true);
  spec.name = "mw" + std::to_string(tables);
  spec.attrs.push_back(data::AttributeSpec{7, 4});
  if (tables > 2) spec.attrs.push_back(data::AttributeSpec{5, 2});
  spec.run_dist = data::RunDist::kSingleGiant;
  return spec;
}

TEST_P(KernelsParityTest, LinregMultiwayGiantRunSimdMatchesScalar) {
  const auto [threads, shards] = GetParam();
  TempDir dir;
  BufferPool pool(512);
  for (const size_t tables : {2, 3}) {
    auto rel = std::move(GenerateSynthetic(
                             MultiwayGiantRunSpec(dir.str(), tables), &pool))
                   .value();
    linreg::LinregOptions opt;
    opt.batch_rows = 256;
    opt.morsel_rows = 200;
    opt.temp_dir = dir.str();
    opt.threads = threads;
    opt.shards = shards;
    opt.kernels = la::KernelMode::kScalar;
    pool.Clear();
    core::TrainReport scalar_report;
    auto scalar = core::TrainLinreg(rel, opt, core::Algorithm::kFactorized,
                                    &pool, &scalar_report);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    opt.kernels = la::KernelMode::kSimd;
    pool.Clear();
    core::TrainReport simd_report;
    auto simd = core::TrainLinreg(rel, opt, core::Algorithm::kFactorized,
                                  &pool, &simd_report);
    ASSERT_TRUE(simd.ok()) << simd.status().ToString();
    const std::string tag = std::to_string(tables) + "-way F threads=" +
                            std::to_string(threads) +
                            " shards=" + std::to_string(shards);
    ExpectSameWorkStream(simd_report, scalar_report, tag);
    EXPECT_NEAR(simd_report.final_objective, scalar_report.final_objective,
                1e-9 * std::fabs(scalar_report.final_objective) + 1e-12)
        << tag;
    EXPECT_LT(linreg::LinregModel::MaxAbsDiff(scalar.value(), simd.value()),
              1e-8)
        << tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, KernelsParityTest,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(1, 2)));

TEST(KernelsModelParityTest, KmeansAndLogregSimdMatchScalar) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  for (const auto algo : kAll) {
    kmeans::KmeansOptions kopt;
    kopt.num_clusters = 3;
    kopt.max_iters = 2;
    kopt.batch_rows = 256;
    kopt.temp_dir = dir.str();
    kopt.threads = 4;
    kopt.kernels = la::KernelMode::kScalar;
    pool.Clear();
    core::TrainReport kscalar_report;
    auto kscalar = core::TrainKmeans(rel, kopt, algo, &pool, &kscalar_report);
    ASSERT_TRUE(kscalar.ok()) << kscalar.status().ToString();
    kopt.kernels = la::KernelMode::kSimd;
    pool.Clear();
    core::TrainReport ksimd_report;
    auto ksimd = core::TrainKmeans(rel, kopt, algo, &pool, &ksimd_report);
    ASSERT_TRUE(ksimd.ok()) << ksimd.status().ToString();
    ExpectSameWorkStream(ksimd_report, kscalar_report, "kmeans");
    EXPECT_NEAR(ksimd_report.final_objective, kscalar_report.final_objective,
                1e-9 * std::fabs(kscalar_report.final_objective) + 1e-12)
        << core::AlgorithmName(algo);
    EXPECT_LT(kmeans::KmeansModel::MaxAbsDiff(kscalar.value(),
                                              ksimd.value()),
              1e-8)
        << core::AlgorithmName(algo);

    logreg::LogregOptions gopt;
    gopt.max_iters = 2;
    gopt.batch_rows = 256;
    gopt.temp_dir = dir.str();
    gopt.threads = 4;
    gopt.kernels = la::KernelMode::kScalar;
    pool.Clear();
    core::TrainReport gscalar_report;
    auto gscalar = core::TrainLogreg(rel, gopt, algo, &pool, &gscalar_report);
    ASSERT_TRUE(gscalar.ok()) << gscalar.status().ToString();
    gopt.kernels = la::KernelMode::kSimd;
    pool.Clear();
    core::TrainReport gsimd_report;
    auto gsimd = core::TrainLogreg(rel, gopt, algo, &pool, &gsimd_report);
    ASSERT_TRUE(gsimd.ok()) << gsimd.status().ToString();
    ExpectSameWorkStream(gsimd_report, gscalar_report, "logreg");
    EXPECT_NEAR(gsimd_report.final_objective, gscalar_report.final_objective,
                1e-9 * std::fabs(gscalar_report.final_objective) + 1e-12)
        << core::AlgorithmName(algo);
    EXPECT_LT(logreg::LogregModel::MaxAbsDiff(gscalar.value(),
                                              gsimd.value()),
              1e-8)
        << core::AlgorithmName(algo);
  }
}

TEST(KernelsModelParityTest, LogregMultiwayGiantRunSimdMatchesScalar) {
  // Four IRLS iterations over the giant-run schemas: the strip
  // path's weights feed back through every solve, so a misplaced run
  // mass or cross block would compound past tolerance. The label is the
  // sign of the generator's real-valued target: on the raw target IRLS
  // diverges (|beta| ~ 1e6 by iteration 4 on the two-way schema), and the
  // coefficient distance then measures that divergence, not the kernels.
  TempDir dir;
  BufferPool pool(512);
  for (const size_t tables : {2, 3}) {
    auto rel = WithTargets(
        std::move(GenerateSynthetic(MultiwayGiantRunSpec(dir.str(), tables),
                                    &pool))
            .value(),
        [](size_t, double y) { return y > 0.0 ? 1.0 : 0.0; },
        dir.str() + "/s_label" + std::to_string(tables) + ".fml", &pool);
    for (const int threads : {1, 4}) {
      for (const int shards : {1, 2}) {
        logreg::LogregOptions opt;
        opt.max_iters = 4;
        opt.batch_rows = 256;
        opt.morsel_rows = 200;
        opt.temp_dir = dir.str();
        opt.threads = threads;
        opt.shards = shards;
        opt.kernels = la::KernelMode::kScalar;
        pool.Clear();
        core::TrainReport scalar_report;
        auto scalar = core::TrainLogreg(rel, opt, core::Algorithm::kFactorized,
                                        &pool, &scalar_report);
        ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
        opt.kernels = la::KernelMode::kSimd;
        pool.Clear();
        core::TrainReport simd_report;
        auto simd = core::TrainLogreg(rel, opt, core::Algorithm::kFactorized,
                                      &pool, &simd_report);
        ASSERT_TRUE(simd.ok()) << simd.status().ToString();
        const std::string tag = std::to_string(tables) + "-way F threads=" +
                                std::to_string(threads) +
                                " shards=" + std::to_string(shards);
        EXPECT_EQ(scalar_report.iterations, 4) << tag;
        ExpectSameWorkStream(simd_report, scalar_report, tag);
        EXPECT_NEAR(simd_report.final_objective, scalar_report.final_objective,
                    1e-9 * std::fabs(scalar_report.final_objective) + 1e-12)
            << tag;
        EXPECT_LT(logreg::LogregModel::MaxAbsDiff(scalar.value(), simd.value()),
                  1e-8)
            << tag;
      }
    }
  }
}

TEST(KernelsModelParityTest, NnSimdMatchesScalarWorkStream) {
  // The strip-fed NN epoch plane: mini-batch drivers pack each sampled
  // batch into column strips and the model runs forward/backward as
  // gemm_strip products. The work stream (op counts charged with the
  // scalar per-row formulas, page I/O of the same batch assembly) must
  // match the scalar plane exactly; the SGD trajectory agrees to
  // tolerance. batch_rows=100 forces every batch into one short partial
  // strip (< kDefaultStripRows), pinning the short-strip path.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  for (const auto algo : kAll) {
    for (const size_t batch_rows : {size_t{256}, size_t{100}}) {
      for (const int threads : {1, 4}) {
        nn::NnOptions opt;
        opt.hidden = {8};
        opt.epochs = 2;
        opt.batch_rows = batch_rows;
        opt.temp_dir = dir.str();
        opt.threads = threads;
        opt.kernels = la::KernelMode::kScalar;
        pool.Clear();
        core::TrainReport scalar_report;
        auto scalar = core::TrainNn(rel, opt, algo, &pool, &scalar_report);
        ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
        opt.kernels = la::KernelMode::kSimd;
        pool.Clear();
        core::TrainReport simd_report;
        auto simd = core::TrainNn(rel, opt, algo, &pool, &simd_report);
        ASSERT_TRUE(simd.ok()) << simd.status().ToString();
        const std::string tag = std::string(core::AlgorithmName(algo)) +
                                " batch=" + std::to_string(batch_rows) +
                                " threads=" + std::to_string(threads);
        ExpectSameWorkStream(simd_report, scalar_report, tag);
        EXPECT_EQ(simd_report.iterations, scalar_report.iterations) << tag;
        EXPECT_NEAR(
            simd_report.final_objective, scalar_report.final_objective,
            1e-7 * std::fabs(scalar_report.final_objective) + 1e-12)
            << tag;
        EXPECT_LT(nn::Mlp::MaxAbsDiffParams(scalar.value(), simd.value()),
                  1e-6)
            << tag;
      }
    }
  }
}

TEST(KernelsModelParityTest, NnSimdMatchesScalarBeyondOneSigmoidLayer) {
  // The strip-native upper layers (BackpropEngine::StepStrips) under
  // deeper networks, every transcendental and piecewise activation, and
  // the full optimizer (dropout masks drawn in the scalar path's
  // row-major order, momentum, weight decay). Per case and strategy: the
  // work stream equals the scalar plane's, the trajectory agrees to
  // tolerance, and the simd plane is bit-exact across thread counts.
  struct Case {
    const char* name;
    std::vector<size_t> hidden;
    nn::Activation activation;
    double dropout, momentum, weight_decay;
  };
  const Case cases[] = {
      {"sigmoid 16x8", {16, 8}, nn::Activation::kSigmoid, 0.0, 0.0, 0.0},
      {"tanh 16x8", {16, 8}, nn::Activation::kTanh, 0.0, 0.0, 0.0},
      {"relu 12", {12}, nn::Activation::kRelu, 0.0, 0.0, 0.0},
      {"tanh 16x8 dropout+momentum+decay", {16, 8}, nn::Activation::kTanh,
       0.25, 0.9, 1e-3},
      {"relu 12 dropout+momentum+decay", {12}, nn::Activation::kRelu, 0.25,
       0.9, 1e-3},
  };
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  for (const Case& c : cases) {
    for (const auto algo : kAll) {
      const std::string what =
          std::string(c.name) + " " + core::AlgorithmName(algo);
      nn::NnOptions opt;
      opt.hidden = c.hidden;
      opt.activation = c.activation;
      opt.hidden_dropout = c.dropout;
      opt.momentum = c.momentum;
      opt.weight_decay = c.weight_decay;
      opt.epochs = 2;
      opt.batch_rows = 300;  // > one strip, with a short last strip
      opt.learning_rate = 0.02;
      opt.temp_dir = dir.str();
      core::TrainReport simd_reports[2];
      nn::Mlp simd_nets[2];
      for (int t = 0; t < 2; ++t) {
        opt.threads = t == 0 ? 1 : 4;
        const std::string tag =
            what + " threads=" + std::to_string(opt.threads);
        opt.kernels = la::KernelMode::kScalar;
        pool.Clear();
        core::TrainReport scalar_report;
        auto scalar = core::TrainNn(rel, opt, algo, &pool, &scalar_report);
        ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
        opt.kernels = la::KernelMode::kSimd;
        pool.Clear();
        auto simd = core::TrainNn(rel, opt, algo, &pool, &simd_reports[t]);
        ASSERT_TRUE(simd.ok()) << simd.status().ToString();
        simd_nets[t] = std::move(simd).value();
        ExpectSameWorkStream(simd_reports[t], scalar_report, tag);
        EXPECT_EQ(simd_reports[t].iterations, scalar_report.iterations) << tag;
        EXPECT_NEAR(simd_reports[t].final_objective,
                    scalar_report.final_objective,
                    1e-7 * std::fabs(scalar_report.final_objective))
            << tag;
        EXPECT_LT(nn::Mlp::MaxAbsDiffParams(scalar.value(), simd_nets[t]),
                  1e-6)
            << tag;
        // The strip plane names its batch transposes: a "pack" phase.
        const auto has_pack = [](const core::TrainReport& r) {
          for (const auto& p : r.phases) {
            if (p.name == "pack") return true;
          }
          return false;
        };
        EXPECT_TRUE(has_pack(simd_reports[t])) << tag;
        EXPECT_FALSE(has_pack(scalar_report)) << tag;
      }
      EXPECT_EQ(simd_reports[0].final_objective,
                simd_reports[1].final_objective)
          << what;
      EXPECT_EQ(nn::Mlp::MaxAbsDiffParams(simd_nets[0], simd_nets[1]), 0.0)
          << what;
    }
  }
}

// ----------------------------------------------- multiway linreg parity

TEST(LinregTest, MultiwayFactorizedMatches) {
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), true);
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  auto m = core::TrainLinreg(rel, opt, core::Algorithm::kMaterialized, &pool,
                             nullptr);
  auto f = core::TrainLinreg(rel, opt, core::Algorithm::kFactorized, &pool,
                             nullptr);
  ASSERT_TRUE(m.ok() && f.ok());
  EXPECT_LT(linreg::LinregModel::MaxAbsDiff(m.value(), f.value()), 1e-6);
}

// ------------------------------------------------- checkpoint / restore

double MetricValue(const core::TrainReport& r, const std::string& name) {
  for (const auto& s : r.metrics) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

TEST(CheckpointTest, FileRoundTripsAndCorruptionIsNamed) {
  TempDir dir;
  core::pipeline::CheckpointState st;
  st.label = "F-GMM";
  st.fingerprint = 0xFEEDFACEu;
  st.completed_iterations = 7;
  st.converged = true;
  st.ops = OpCounters{11, 22, 33, 44};
  st.state = {1.5, -0.0, 0.0, 1e-300, 42.0};
  ASSERT_TRUE(core::pipeline::WriteCheckpoint(dir.str(), st).ok());

  auto back = core::pipeline::ReadCheckpoint(dir.str(), "F-GMM");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().label, st.label);
  EXPECT_EQ(back.value().fingerprint, st.fingerprint);
  EXPECT_EQ(back.value().completed_iterations, 7);
  EXPECT_TRUE(back.value().converged);
  EXPECT_EQ(back.value().ops.mults, 11u);
  EXPECT_EQ(back.value().ops.exps, 44u);
  ASSERT_EQ(back.value().state.size(), st.state.size());
  for (size_t i = 0; i < st.state.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back.value().state[i], &st.state[i],
                          sizeof(double)),
              0)
        << "double " << i;
  }

  // A missing label is NotFound (train fresh), a flipped state byte is
  // InvalidArgument naming the block and both CRCs (warn, train fresh).
  EXPECT_EQ(core::pipeline::ReadCheckpoint(dir.str(), "F-KMEANS")
                .status()
                .code(),
            StatusCode::kNotFound);
  const std::string path = core::pipeline::CheckpointPath(dir.str(), "F-GMM");
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -6, SEEK_END);  // inside the state block's doubles
    std::fputc(0x5A, f);
    std::fclose(f);
  }
  const Status corrupt =
      core::pipeline::ReadCheckpoint(dir.str(), "F-GMM").status();
  EXPECT_EQ(corrupt.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(corrupt.ToString().find("CRC mismatch"), std::string::npos)
      << corrupt.ToString();
}

/// Resume contract, per family: train the full budget uninterrupted,
/// then train half the budget into a checkpoint dir and rerun the full
/// budget from it — objective, op counts and iteration totals must all
/// match the uninterrupted run exactly (bitwise for the objective).
template <typename Options, typename TrainFn, typename DiffFn>
void ExpectResumeParity(const join::NormalizedRelations& rel, Options& opt,
                        int full_budget, core::Algorithm algo,
                        BufferPool* pool, TrainFn train, DiffFn max_abs_diff,
                        int* set_budget, const char* family) {
  TempDir ckpt;
  opt.checkpoint_dir.clear();
  *set_budget = full_budget;
  pool->Clear();
  core::TrainReport base_report;
  auto base = train(rel, opt, algo, pool, &base_report);
  ASSERT_TRUE(base.ok()) << family << ": " << base.status().ToString();

  *set_budget = full_budget / 2;
  opt.checkpoint_dir = ckpt.str();
  pool->Clear();
  core::TrainReport half_report;
  auto half = train(rel, opt, algo, pool, &half_report);
  ASSERT_TRUE(half.ok()) << family << ": " << half.status().ToString();
  ASSERT_EQ(half_report.iterations, full_budget / 2) << family;

  *set_budget = full_budget;
  pool->Clear();
  core::TrainReport resumed_report;
  auto resumed = train(rel, opt, algo, pool, &resumed_report);
  ASSERT_TRUE(resumed.ok()) << family << ": " << resumed.status().ToString();

  EXPECT_EQ(resumed_report.final_objective, base_report.final_objective)
      << family;
  EXPECT_EQ(max_abs_diff(base.value(), resumed.value()), 0.0) << family;
  EXPECT_EQ(resumed_report.iterations, base_report.iterations) << family;
  EXPECT_EQ(resumed_report.ops.mults, base_report.ops.mults) << family;
  EXPECT_EQ(resumed_report.ops.adds, base_report.ops.adds) << family;
  EXPECT_EQ(resumed_report.ops.subs, base_report.ops.subs) << family;
  EXPECT_EQ(resumed_report.ops.exps, base_report.ops.exps) << family;
}

TEST(CheckpointTest, GmmResumeIsBitIdenticalAcrossStrategies) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (const auto algo : kAll) {
    ExpectResumeParity(rel, opt, 4, algo, &pool, core::TrainGmm,
                       gmm::GmmParams::MaxAbsDiff, &opt.max_iters, "gmm");
  }
}

TEST(CheckpointTest, LogregResumeIsBitIdenticalAcrossStrategies) {
  // The iteration state is beta and the objective; the weighted normal
  // equations are rebuilt by every pass, so a resumed run replays the
  // uninterrupted one from the restored beta.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  logreg::LogregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (const auto algo : kAll) {
    ExpectResumeParity(rel, opt, 4, algo, &pool, core::TrainLogreg,
                       logreg::LogregModel::MaxAbsDiff, &opt.max_iters,
                       "logreg");
  }
}

TEST(CheckpointTest, KmeansShardedResumeIsBitIdentical) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 2;
  opt.shards = 2;
  opt.morsel_rows = 500;
  ExpectResumeParity(rel, opt, 4, core::Algorithm::kFactorized, &pool,
                     core::TrainKmeans, kmeans::KmeansModel::MaxAbsDiff,
                     &opt.max_iters, "kmeans");
}

TEST(CheckpointTest, NnEpochResumeIsBitIdentical) {
  // The mini-batch plane's seam carries the most state: every layer's
  // weights and biases, the momentum velocities and the dropout
  // generator cursor. Shuffle + dropout + momentum are all on so a
  // missed cursor anywhere breaks the bitwise comparison.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  nn::NnOptions opt;
  opt.hidden = {8};
  opt.batch_rows = 256;
  opt.learning_rate = 0.05;
  opt.shuffle = true;
  opt.hidden_dropout = 0.25;
  opt.momentum = 0.9;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  ExpectResumeParity(rel, opt, 4, core::Algorithm::kFactorized, &pool,
                     core::TrainNn, nn::Mlp::MaxAbsDiffParams, &opt.epochs,
                     "nn");
}

TEST(CheckpointTest, CorruptCheckpointIsSkippedWithFreshStart) {
  TempDir dir;
  TempDir ckpt;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  pool.Clear();
  core::TrainReport base_report;
  auto base =
      core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                     &base_report);
  ASSERT_TRUE(base.ok());

  // Garbage where the checkpoint should be: training must detect it via
  // the CRC, warn, and produce exactly the fresh-start result.
  const std::string path =
      core::pipeline::CheckpointPath(ckpt.str(), "F-GMM");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("FMLCKPT1 but then noise that no CRC will bless", f);
    std::fclose(f);
  }
  opt.checkpoint_dir = ckpt.str();
  pool.Clear();
  core::TrainReport report;
  auto r =
      core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(report.final_objective, base_report.final_objective);
  EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base.value(), r.value()), 0.0);
  EXPECT_EQ(report.iterations, 2);
}

TEST(CheckpointTest, OptionValidationRejectsBadCombos) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 1;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();

  opt.delta_encoding = "gzip";
  core::TrainReport report;
  auto r = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                          &report);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("delta-encoding"), std::string::npos)
      << r.status().ToString();

  opt.delta_encoding = "dense";
  opt.checkpoint_every = 2;  // without a checkpoint dir
  r = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &report);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("--checkpoint-dir"), std::string::npos)
      << r.status().ToString();
}

// --------------------------------------- slot memory + sparse deltas

TEST(ShardParityTest, SparseDeltasBitIdenticalToDenseAndNoLarger) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 2;
  opt.shards = 3;
  opt.morsel_rows = 400;

  opt.delta_encoding = "dense";
  pool.Clear();
  core::TrainReport dense_report;
  auto dense = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                              &dense_report);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();

  opt.delta_encoding = "sparse";
  pool.Clear();
  core::TrainReport sparse_report;
  auto sparse = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                               &sparse_report);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();

  EXPECT_EQ(sparse_report.final_objective, dense_report.final_objective);
  EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(dense.value(), sparse.value()), 0.0);
  EXPECT_EQ(sparse_report.ops.mults, dense_report.ops.mults);
  EXPECT_EQ(sparse_report.ops.adds, dense_report.ops.adds);
  const double dense_wire = MetricValue(dense_report, "pipeline.delta_bytes");
  const double sparse_wire =
      MetricValue(sparse_report, "pipeline.delta_bytes");
  EXPECT_GT(dense_wire, 0.0);
  EXPECT_GT(sparse_wire, 0.0);
  EXPECT_LE(sparse_wire, dense_wire);
}

TEST(SlotMemoryTest, RidScopedSlotsStayFarBelowFullDomainSizing) {
  // The bug this PR fixes: per-chunk slots used to allocate the full
  // table-0 domain each, O(chunk_count x k x n_R) total. Rid-scoped
  // slots partition the domain instead, so the measured bytes must sit
  // well under chunk_count x (one full-domain slot) once the chunk count
  // is large — and the chunked result stays bit-identical to itself
  // across thread counts (the existing parity suites pin that).
  //
  // A wide attribute table makes the k x n_R term the dominant slot
  // cost; with the shared 40-rid spec the fixed per-slot state drowns
  // out the rid-scoped savings and the ratio below is meaningless.
  TempDir dir;
  BufferPool pool(512);
  data::SyntheticSpec spec = Spec(dir.str(), false);
  spec.attrs = {data::AttributeSpec{600, 5}};
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 1;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;

  pool.Clear();
  core::TrainReport serial_report;
  auto serial = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                               &serial_report);
  ASSERT_TRUE(serial.ok());
  const double one_slot = MetricValue(serial_report, "pipeline.slot_bytes");
  ASSERT_GT(one_slot, 0.0);

  opt.morsel_rows = 100;  // 3000 rows -> 30 chunks
  pool.Clear();
  core::TrainReport chunked_report;
  auto chunked = core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                &pool, &chunked_report);
  ASSERT_TRUE(chunked.ok());
  const double chunked_bytes =
      MetricValue(chunked_report, "pipeline.slot_bytes");
  ASSERT_GT(chunked_bytes, 0.0);
  const double full_domain_cost = 30.0 * one_slot;
  EXPECT_LT(chunked_bytes, 0.25 * full_domain_cost)
      << "slot memory grew like the pre-fix full-domain sizing "
      << "(chunked " << chunked_bytes << " vs legacy " << full_domain_cost
      << ")";
}

}  // namespace
}  // namespace factorml
