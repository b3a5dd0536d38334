#include "nn/activation.h"

#include "common/opcount.h"

namespace factorml::nn {

const char* ActivationName(Activation a) {
  switch (a) {
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
    case Activation::kRelu:
      return "relu";
    case Activation::kIdentity:
      return "identity";
  }
  return "?";
}

bool IsAdditive(Activation a) { return a == Activation::kIdentity; }

static_assert(static_cast<int>(la::ActKind::kSigmoid) ==
              static_cast<int>(Activation::kSigmoid));
static_assert(static_cast<int>(la::ActKind::kTanh) ==
              static_cast<int>(Activation::kTanh));
static_assert(static_cast<int>(la::ActKind::kRelu) ==
              static_cast<int>(Activation::kRelu));
static_assert(static_cast<int>(la::ActKind::kIdentity) ==
              static_cast<int>(Activation::kIdentity));

void ApplyActivation(Activation act, const la::Matrix& a, la::Matrix* h) {
  if (h->rows() != a.rows() || h->cols() != a.cols()) {
    h->Resize(a.rows(), a.cols());
  }
  la::ScalarKernels().activation(KernelActivation(act), a.data(), h->data(),
                                 a.size());
  if (IsTranscendental(act)) CountExps(a.size());
}

void ActivationGrad(Activation act, const la::Matrix& a, const la::Matrix& h,
                    la::Matrix* g) {
  if (g->rows() != a.rows() || g->cols() != a.cols()) {
    g->Resize(a.rows(), a.cols());
  }
  // 1 * f' is f' exactly, so this is the fused form's own arithmetic.
  g->Fill(1.0);
  MulActivationGrad(act, a.data(), h.data(), g->data(), a.size());
  if (IsTranscendental(act)) {
    CountMults(a.size());
    CountSubs(a.size());
  }
}

void MulActivationGrad(Activation act, const double* a, const double* h,
                       double* d, size_t n) {
  switch (act) {
    case Activation::kSigmoid:
      for (size_t i = 0; i < n; ++i) d[i] *= h[i] * (1.0 - h[i]);
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) d[i] *= 1.0 - h[i] * h[i];
      break;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) d[i] *= a[i] > 0.0 ? 1.0 : 0.0;
      break;
    case Activation::kIdentity:
      break;
  }
}

}  // namespace factorml::nn
