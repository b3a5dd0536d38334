#include "la/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "obs/metrics.h"

namespace factorml::la {

namespace {

// ------------------------------------------------------- scalar backend
//
// The primitive bodies below are the seed's exact loops, moved verbatim
// from ops.cc (which now routes through the active table). The build is
// IEEE-strict, so `--kernels=scalar` reproduces the pre-kernel-plane bits
// that the tier-1 goldens pin. The strip kernels replay the per-row order
// the model programs used before batching, making them the reference the
// vector backends are tolerance-tested against.

double ScalarDot(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void ScalarAxpy(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarGemv(const double* a, size_t m, size_t n, const double* x,
                double* y) {
  for (size_t i = 0; i < m; ++i) {
    const double* row = a + i * n;
    double s = 0.0;
    for (size_t j = 0; j < n; ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

double ScalarBilinear(const double* a, size_t lda, const double* u, size_t nu,
                      const double* v, size_t nv) {
  double total = 0.0;
  for (size_t i = 0; i < nu; ++i) {
    const double* row = a + i * lda;
    double s = 0.0;
    for (size_t j = 0; j < nv; ++j) s += row[j] * v[j];
    total += u[i] * s;
  }
  return total;
}

void ScalarAddOuter(double alpha, const double* u, size_t nu, const double* v,
                    size_t nv, double* a, size_t lda) {
  for (size_t i = 0; i < nu; ++i) {
    const double ui = alpha * u[i];
    double* row = a + i * lda;
    for (size_t j = 0; j < nv; ++j) row[j] += ui * v[j];
  }
}

void ScalarSyrkStrip(const double* const* cols, size_t d, size_t rows,
                     const double* w, double* gram, size_t ldg) {
  for (size_t r = 0; r < rows; ++r) {
    const double wr = w != nullptr ? w[r] : 1.0;
    for (size_t i = 0; i < d; ++i) {
      const double ui = wr * cols[i][r];
      double* row = gram + i * ldg;
      for (size_t j = 0; j < d; ++j) row[j] += ui * cols[j][r];
    }
  }
}

void ScalarColDotStrip(const double* const* cols, size_t d, size_t rows,
                       const double* v, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += v[j] * cols[j][r];
    out[r] = s;
  }
}

void ScalarColSumStrip(const double* const* cols, size_t d, size_t rows,
                       const double* w, double* acc) {
  for (size_t r = 0; r < rows; ++r) {
    const double wr = w != nullptr ? w[r] : 1.0;
    for (size_t j = 0; j < d; ++j) acc[j] += wr * cols[j][r];
  }
}

void ScalarDistStrip(const double* const* cols, size_t d, size_t rows,
                     const double* center, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double t = cols[j][r] - center[j];
      s += t * t;
    }
    out[r] = s;
  }
}

void ScalarQuadFormStrip(const double* diff, size_t d, size_t rows,
                         const double* a, size_t lda, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    double q = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const double* ai = a + i * lda;
      double t = 0.0;
      for (size_t j = 0; j < d; ++j) t += ai[j] * diff[j * rows + r];
      q += diff[i * rows + r] * t;
    }
    out[r] = q;
  }
}

void ScalarGemmStrip(const double* a, size_t lda, const double* b, size_t ldb,
                     size_t m, size_t n, size_t k, double* c, size_t ldc,
                     bool trans_b, bool accumulate) {
  for (size_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    if (!accumulate) {
      for (size_t j = 0; j < n; ++j) ci[j] = 0.0;
    }
    if (trans_b) {
      for (size_t j = 0; j < n; ++j) {
        const double* bj = b + j * ldb;
        double s = 0.0;
        for (size_t p = 0; p < k; ++p) s += ai[p] * bj[p];
        ci[j] += s;
      }
    } else {
      for (size_t p = 0; p < k; ++p) {
        const double aip = ai[p];
        const double* bp = b + p * ldb;
        for (size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
      }
    }
  }
}

void ScalarGatherAddRowsStrip(const double* base, size_t ldb,
                              const int64_t* idx, size_t rows, size_t n,
                              double* out, size_t ldo) {
  for (size_t r = 0; r < rows; ++r) {
    const double* src = base + static_cast<size_t>(idx[r]) * ldb;
    double* dst = out + r * ldo;
    for (size_t j = 0; j < n; ++j) dst[j] += src[j];
  }
}

void ScalarGatherAddStrip(const double* src, const int64_t* idx, size_t rows,
                          double* out) {
  for (size_t r = 0; r < rows; ++r) out[r] += src[idx[r]];
}

void ScalarScatterAddStrip(const int64_t* idx, const double* w, size_t rows,
                           double* acc) {
  for (size_t r = 0; r < rows; ++r) {
    acc[idx[r]] += w != nullptr ? w[r] : 1.0;
  }
}

void ScalarActivation(ActKind kind, const double* a, double* h, size_t n) {
  switch (kind) {
    case ActKind::kSigmoid:
      for (size_t i = 0; i < n; ++i) h[i] = 1.0 / (1.0 + std::exp(-a[i]));
      break;
    case ActKind::kTanh:
      for (size_t i = 0; i < n; ++i) h[i] = std::tanh(a[i]);
      break;
    case ActKind::kRelu:
      for (size_t i = 0; i < n; ++i) h[i] = a[i] > 0.0 ? a[i] : 0.0;
      break;
    case ActKind::kIdentity:
      for (size_t i = 0; i < n; ++i) h[i] = a[i];
      break;
    case ActKind::kExp:
      for (size_t i = 0; i < n; ++i) h[i] = std::exp(a[i]);
      break;
  }
}

constexpr Kernels kScalarKernels = {
    "scalar",          false,
    ScalarDot,         ScalarAxpy,       ScalarGemv,
    ScalarBilinear,    ScalarAddOuter,
    ScalarSyrkStrip,   ScalarColDotStrip, ScalarColSumStrip,
    ScalarDistStrip,   ScalarQuadFormStrip,
    ScalarGemmStrip,   ScalarGatherAddRowsStrip,
    ScalarGatherAddStrip, ScalarScatterAddStrip,
    ScalarActivation,
};

// ------------------------------------------------------- vector backends

typedef double fml_v4d __attribute__((vector_size(32)));
typedef double fml_v4d_u
    __attribute__((vector_size(32), aligned(8), __may_alias__));
// Lane-matched integer views for comparison masks and exponent-bit
// arithmetic (a cast between equal-size vector types reinterprets bits).
typedef int64_t fml_v4i __attribute__((vector_size(32)));
typedef uint64_t fml_v4u __attribute__((vector_size(32)));

// Constants of the vector exp / tanh (kernels_vec.inc). ln2 is split
// fdlibm-style: kLn2Hi has its low 32 bits clear, so k * kLn2Hi is exact
// for every |k| the clamped exp range produces.
constexpr double kLog2e = 1.44269504088896338700e+00;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
// 1/2!, 1/3!, ..., 1/13!: e^r = 1 + r + r^2 q(r), q(r) = sum_i r^i/(i+2)!.
constexpr double kExpTaylor[] = {
    1.0 / 2.0,         1.0 / 6.0,          1.0 / 24.0,
    1.0 / 120.0,       1.0 / 720.0,        1.0 / 5040.0,
    1.0 / 40320.0,     1.0 / 362880.0,     1.0 / 3628800.0,
    1.0 / 39916800.0,  1.0 / 479001600.0,  1.0 / 6227020800.0,
};
// Cephes tanh rational coefficients for |x| < 0.625: P(z) and the monic
// Q(z) without its leading 1.
constexpr double kTanhP[] = {-9.64399179425052238628e-1,
                             -9.92877231001918586564e1,
                             -1.61468768441708447952e3};
constexpr double kTanhQ[] = {1.12811678491632931402e2,
                             2.23548839060100448583e3,
                             4.84406305325125486048e3};

// The baseline instantiation passes 32-byte vectors between static
// (fully-internal) helpers; GCC's ABI note about that is irrelevant here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

#define FML_VEC_INLINE inline __attribute__((always_inline))

// Baseline-ISA instantiation (SSE2 on x86-64, NEON on aarch64 — the
// compiler splits the 32-byte lanes to whatever the target offers).
#define FML_VEC_FN(name) Portable##name
#define FML_VEC_ATTR
#include "la/kernels_vec.inc"
#undef FML_VEC_FN
#undef FML_VEC_ATTR

constexpr Kernels kPortableKernels = {
    "portable",          true,
    PortableDot,         PortableAxpy,       PortableGemv,
    PortableBilinear,    PortableAddOuter,
    PortableSyrkStrip,   PortableColDotStrip, PortableColSumStrip,
    PortableDistStrip,   PortableQuadFormStrip,
    PortableGemmStrip,   PortableGatherAddRowsStrip,
    PortableGatherAddStrip, PortableScatterAddStrip,
    PortableActivation,
};

#if defined(__x86_64__) || defined(_M_X64)
#define FML_HAVE_AVX2_CLONE 1
// AVX2+FMA instantiation of the same source; selected at runtime only when
// __builtin_cpu_supports agrees, so the baseline binary stays portable.
#define FML_VEC_FN(name) Avx2##name
#define FML_VEC_ATTR __attribute__((target("avx2,fma")))
#include "la/kernels_vec.inc"
#undef FML_VEC_FN
#undef FML_VEC_ATTR

constexpr Kernels kAvx2Kernels = {
    "avx2",          true,
    Avx2Dot,         Avx2Axpy,       Avx2Gemv,
    Avx2Bilinear,    Avx2AddOuter,
    Avx2SyrkStrip,   Avx2ColDotStrip, Avx2ColSumStrip,
    Avx2DistStrip,   Avx2QuadFormStrip,
    Avx2GemmStrip,   Avx2GatherAddRowsStrip,
    Avx2GatherAddStrip, Avx2ScatterAddStrip,
    Avx2Activation,
};

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif  // x86-64

const Kernels& NativeSimdKernels() {
#if defined(FML_HAVE_AVX2_CLONE)
  static const bool avx2 = CpuHasAvx2Fma();
  if (avx2) return kAvx2Kernels;
#endif
  return kPortableKernels;
}

/// What kSimd resolves to: the CPU-feature pick, unless the
/// FACTORML_KERNELS_BACKEND override names a specific table. Re-read on
/// every selection so tests can flip the variable between runs. kScalar
/// selection never consults this — the scalar goldens must hold with the
/// override set (the forced-portable CI job runs the whole tier1 suite).
const Kernels& SimdKernels() {
  const char* env = std::getenv("FACTORML_KERNELS_BACKEND");
  if (env == nullptr || *env == '\0') return NativeSimdKernels();
  const std::string_view v(env);
  if (v == "scalar") return kScalarKernels;
  if (v == "portable") return kPortableKernels;
  if (v == "native") return NativeSimdKernels();
  std::fprintf(stderr,
               "invalid FACTORML_KERNELS_BACKEND=%s "
               "(expected scalar, portable or native)\n",
               env);
  std::exit(2);
}

std::atomic<const Kernels*> g_active{&kScalarKernels};

}  // namespace

void SelectKernels(KernelMode mode) {
  const Kernels& k =
      mode == KernelMode::kSimd ? SimdKernels() : kScalarKernels;
  g_active.store(&k, std::memory_order_release);
  // 0 = scalar, 1 = portable vector, 2 = avx2 — the dispatch decision as a
  // scrapeable signal (last run wins, like every gauge).
  static obs::Gauge* dispatch =
      obs::Registry::Instance().GetGauge("kernels.dispatch");
  dispatch->Set(!k.simd ? 0.0 : (k.name[0] == 'a' ? 2.0 : 1.0));
}

const Kernels& ScalarKernels() { return kScalarKernels; }

const Kernels& Active() {
  return *g_active.load(std::memory_order_acquire);
}

const char* SimdBackendName() { return SimdKernels().name; }

std::string CpuFeatures() {
#if defined(FML_HAVE_AVX2_CLONE)
  return CpuHasAvx2Fma() ? "x86-64 avx2 fma" : "x86-64 baseline";
#elif defined(__aarch64__) || defined(__ARM_NEON)
  return "aarch64 neon";
#else
  return "generic";
#endif
}

const char* KernelModeName(KernelMode mode) {
  return mode == KernelMode::kSimd ? "simd" : "scalar";
}

}  // namespace factorml::la
