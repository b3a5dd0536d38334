#ifndef FACTORML_NN_ACTIVATION_H_
#define FACTORML_NN_ACTIVATION_H_

#include <string>

#include "la/kernels.h"
#include "la/matrix.h"

namespace factorml::nn {

/// Activation functions studied by the paper (Sec. VI-A2). Sigmoid and
/// tanh are not additive, so exact computation sharing is limited to the
/// first layer; identity is additive (the Cauchy functional form), which
/// is what makes the second-layer-reuse ablation expressible; ReLU is
/// additive only when both partial sums share a sign.
enum class Activation {
  kSigmoid,
  kTanh,
  kRelu,
  kIdentity,
};

const char* ActivationName(Activation a);

/// The la::Kernels::activation spelling of `a` (same enumerator values).
inline la::ActKind KernelActivation(Activation a) {
  return static_cast<la::ActKind>(a);
}

/// True for the activations evaluated through exp/tanh — the ones that
/// charge one `exps` op per element.
inline bool IsTranscendental(Activation a) {
  return a == Activation::kSigmoid || a == Activation::kTanh;
}

/// True for activations satisfying f(x + y) = f(x) + f(y) everywhere —
/// the requirement for exact cross-layer computation sharing.
bool IsAdditive(Activation a);

/// h = f(a), element-wise over the batch, through the scalar kernel table
/// (libm exp/tanh) whatever backend is active: the row-major reference.
void ApplyActivation(Activation act, const la::Matrix& a, la::Matrix* h);

/// g = f'(a) element-wise, expressed through the already-computed h where
/// cheaper (sigmoid: h(1-h); tanh: 1-h^2).
void ActivationGrad(Activation act, const la::Matrix& a, const la::Matrix& h,
                    la::Matrix* g);

/// d[i] *= f'(a[i]) for i < n, with f' taken from h = f(a) where cheaper:
/// the backward delta product with f' fused in (ActivationGrad is this
/// applied to ones). Raw: charges no ops.
void MulActivationGrad(Activation act, const double* a, const double* h,
                       double* d, size_t n);

}  // namespace factorml::nn

#endif  // FACTORML_NN_ACTIVATION_H_
