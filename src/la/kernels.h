#ifndef FACTORML_LA_KERNELS_H_
#define FACTORML_LA_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace factorml::la {

/// Element-wise functions of the `activation` kernel: the NN hidden-layer
/// activations (values match nn::Activation) plus the bare exponential
/// they are built on, exposed so its accuracy can be pinned on its own.
enum class ActKind {
  kSigmoid = 0,  // 1 / (1 + e^-x)
  kTanh = 1,
  kRelu = 2,
  kIdentity = 3,
  kExp = 4,
};

/// Runtime-dispatched compute kernel plane behind `--kernels={scalar,simd}`.
///
/// Every function pointer in `Kernels` is a *raw* kernel: it performs the
/// arithmetic only and never touches the OpCounters — accounting stays in
/// the `la/ops.h` wrappers (per-call totals) and in the model programs'
/// strip paths (per-batch totals), so the measured op counts are identical
/// for every backend by construction.
///
/// Backends:
///  - `scalar`  — the seed's exact loop bodies, moved verbatim from
///    `ops.cc`. The build uses strict IEEE semantics (no -ffast-math), so
///    routing through this table is bit-identical to the pre-kernel-plane
///    code: the tier-1 goldens pin it.
///  - `portable` — GNU vector extensions (32-byte double lanes) compiled
///    at the baseline ISA. On x86-64 that is SSE2; on aarch64 the same
///    source lowers to NEON. Fixed multi-accumulator reduction order, so
///    results are deterministic per build but differ from scalar by
///    reassociation — the tolerance contract.
///  - `avx2` — the identical vector source re-compiled per-function with
///    `target("avx2,fma")`, selected at runtime via __builtin_cpu_supports.
///
/// SelectKernels() is called once per training run (RunTraining) before
/// any parallel region; workers only ever read the table.
struct Kernels {
  const char* name;  // "scalar", "portable", "avx2"
  bool simd;

  // ------------------------------------------------- routed primitives
  // Semantics match the `la/ops.h` wrappers of the same shape.
  double (*dot)(const double* a, const double* b, size_t n);
  void (*axpy)(double alpha, const double* x, double* y, size_t n);
  // y = A x; `a` is m x n row-major.
  void (*gemv)(const double* a, size_t m, size_t n, const double* x,
               double* y);
  // total = u^T A v over an nu x nv block at `a` with row stride lda.
  double (*bilinear)(const double* a, size_t lda, const double* u, size_t nu,
                     const double* v, size_t nv);
  // a[i*lda + j] += (alpha * u[i]) * v[j].
  void (*add_outer)(double alpha, const double* u, size_t nu, const double* v,
                    size_t nv, double* a, size_t lda);

  // ---------------------------------------------- strip batch kernels
  // `cols` is an array of d pointers, each to a contiguous column of
  // `rows` doubles (one decoded strip, see storage::ColumnStrips).

  // gram[i*ldg + j] += sum_r w[r] * cols[i][r] * cols[j][r] over the full
  // (symmetric) d x d square; w == nullptr means unit weights. Batches the
  // per-row rank-1 AddOuter of the linreg/logreg Gram update and the GMM
  // covariance moment.
  void (*syrk_strip)(const double* const* cols, size_t d, size_t rows,
                     const double* w, double* gram, size_t ldg);
  // out[r] = sum_j v[j] * cols[j][r] — the transposed-gemv shape of the
  // logreg eta pass (one dot per row, batched across the strip).
  void (*col_dot_strip)(const double* const* cols, size_t d, size_t rows,
                        const double* v, double* out);
  // acc[j] += sum_r w[r] * cols[j][r]; w == nullptr means unit weights.
  // Batches the per-row Axpy of the cofactor / weighted-mean updates.
  void (*colsum_strip)(const double* const* cols, size_t d, size_t rows,
                       const double* w, double* acc);
  // out[r] = sum_j (cols[j][r] - center[j])^2 — one k-means distance
  // column per call.
  void (*dist_strip)(const double* const* cols, size_t d, size_t rows,
                     const double* center, double* out);
  // out[r] = diff_r^T A diff_r where diff is d x rows row-major
  // (diff[i*rows + r]) — the batched GMM responsibility quadratic form.
  void (*quadform_strip)(const double* diff, size_t d, size_t rows,
                         const double* a, size_t lda, double* out);

  // ------------------------------------------- dgemm-shaped strip kernel
  // trans_b == false:  C(m x n, ldc) (+)= A(m x k, lda) * B(k x n, ldb)
  //   — axpy-form over n; B's rows are contiguous length-n runs (strip
  //   columns / transposed batch rows), so the vector backends broadcast
  //   a(i, p) against whole lanes of B's row p. The NN first-layer forward
  //   shape: A = W1 slice,
  //   B = one feature strip, C = the transposed activation block.
  // trans_b == true:   C(m x n, ldc) (+)= A(m x k, lda) * B(n x k, ldb)^T
  //   — dot-form over k; both operands contiguous along k (two strip
  //   blocks of the same height). The NN backward shape: A = transposed
  //   delta strip, B = the feature strip, C = a W1-gradient block.
  // accumulate == false overwrites C's m x n block instead of adding.
  // C must not overlap A or B.
  //
  // The vector backends register-block both forms: a C tile stays in
  // registers across the whole reduction and is stored once — 4 rows x
  // 12 columns in the axpy form, 2 A rows x 3 B rows in the dot form,
  // with the leftover rows and columns (down to a zero-padded partial
  // vector) in smaller tiles of the same scheme. Contract: every output
  // element sees exactly the summation sequence of the row-at-a-time
  // loop — the axpy form c0 + a(i,0) b(0,j) + a(i,1) b(1,j) + ... in
  // ascending k from c0 = C (accumulate) or 0.0, the dot form c0 +
  // dot(A row, B row) in `dot`'s own order — so the blocked kernel is
  // bit-identical to `axpy` / `dot` per row (la_test pins it).
  void (*gemm_strip)(const double* a, size_t lda, const double* b, size_t ldb,
                     size_t m, size_t n, size_t k, double* c, size_t ldc,
                     bool trans_b, bool accumulate);

  // ----------------------------------------- FK1 gather/scatter kernels
  // Rid-indexed strip kernels for the group-structured attribute loops:
  // `idx` holds one row id per strip row (contiguous rid runs when they
  // come from join::ChunkFk1Runs group batches, arbitrary otherwise).
  // Scatters visit rows in ascending order in every backend, so duplicate
  // indices accumulate bit-identically to the scalar row loop.

  // out[r] += base[idx[r] * ldb + j] for j in [0, n) — adds one gathered
  // base row per strip row (NN's per-attribute partial-cache gather).
  void (*gather_add_rows_strip)(const double* base, size_t ldb,
                                const int64_t* idx, size_t rows, size_t n,
                                double* out, size_t ldo);
  // out[r] += src[idx[r]] — element gather-add (k-means' cached
  // per-attribute distance lookups).
  void (*gather_add_strip)(const double* src, const int64_t* idx,
                           size_t rows, double* out);
  // acc[idx[r]] += w[r] (w == nullptr means unit weights) — element
  // scatter-add (GMM's per-rid responsibility mass, k-means' group mass).
  void (*scatter_add_strip)(const int64_t* idx, const double* w, size_t rows,
                            double* acc);

  // ---------------------------------------------- element-wise kernel
  // h[i] = f(a[i]) for i in [0, n); `a == h` is allowed. The scalar
  // backend runs the libm loops (std::exp / std::tanh); the vector
  // backends evaluate exp with a range-reduced polynomial that stays
  // within 2 ulp of std::exp, overflows to +inf and underflows to 0 where
  // std::exp does, and propagates NaN. ReLU and identity are exact in
  // every backend.
  void (*activation)(ActKind kind, const double* a, double* h, size_t n);
};

/// Kernel backend selection mode, resolved from --kernels.
enum class KernelMode {
  kScalar = 0,  // bit-identical seed loops (default)
  kSimd = 1,    // best vector backend this CPU supports
};

/// Installs the backend for `mode` as the process-wide active table and
/// publishes the choice to the obs registry (`kernels.dispatch` gauge:
/// 0 = scalar, 1 = portable vector, 2 = avx2). kSimd resolves to "avx2"
/// when the CPU reports AVX2+FMA, else the portable vector backend.
///
/// The FACTORML_KERNELS_BACKEND environment variable overrides what kSimd
/// resolves to — "scalar", "portable", or "native" (the CPU-feature pick
/// above) — so tests/CI can force the portable GNU-vector lowering on AVX2
/// hosts. kScalar ignores the override: the bit-identity goldens must hold
/// whatever the environment says. An unrecognized value exits with code 2.
void SelectKernels(KernelMode mode);

/// The scalar table itself, whatever is active — the reference the
/// row-major NN path (nn::ApplyActivation) evaluates through.
const Kernels& ScalarKernels();

/// The active kernel table (scalar until SelectKernels says otherwise).
/// Safe to call concurrently from workers; selection happens before
/// parallel regions.
const Kernels& Active();

/// Name of the backend SelectKernels(kSimd) would pick on this machine,
/// honoring the FACTORML_KERNELS_BACKEND override (so run manifests report
/// the backend a forced run actually used).
const char* SimdBackendName();

/// Detected CPU feature summary for manifests, e.g. "x86-64 avx2 fma",
/// "x86-64 baseline", "aarch64 neon".
std::string CpuFeatures();

/// "scalar" / "simd" — the flag spelling of a mode.
const char* KernelModeName(KernelMode mode);

}  // namespace factorml::la

#endif  // FACTORML_LA_KERNELS_H_
