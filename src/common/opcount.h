#ifndef FACTORML_COMMON_OPCOUNT_H_
#define FACTORML_COMMON_OPCOUNT_H_

#include <cstdint>
#include <string>

namespace factorml {

/// Coarse-grained floating-point operation counters. Kernels in `la/` and
/// the trainers add per-call totals (e.g. a d×d gemv adds d*d mults), so
/// the overhead is negligible while the counts validate the paper's
/// analytical cost model (Sec. V-B, VI-A2).
struct OpCounters {
  uint64_t mults = 0;
  uint64_t adds = 0;
  uint64_t subs = 0;
  uint64_t exps = 0;  // transcendental calls (exp/log/tanh)

  uint64_t Total() const { return mults + adds + subs + exps; }

  OpCounters operator-(const OpCounters& o) const {
    return {mults - o.mults, adds - o.adds, subs - o.subs, exps - o.exps};
  }

  OpCounters& operator+=(const OpCounters& o) {
    mults += o.mults;
    adds += o.adds;
    subs += o.subs;
    exps += o.exps;
    return *this;
  }

  /// Adds this counter's totals into `dst` — the explicit merge step by
  /// which the exec runtime folds per-worker counts back into the
  /// dispatching thread after a parallel region.
  void MergeInto(OpCounters* dst) const { *dst += *this; }

  std::string ToString() const;
};

/// Per-thread op accounting. Kernels always charge the calling thread's
/// counters (no contention); the exec runtime merges each worker's delta
/// into the dispatching thread in worker order, so snapshot deltas taken on
/// the dispatching thread (ReportScope) see the whole parallel run.
/// Single-threaded callers observe the exact pre-existing semantics.
/// Defined inline (constant-initialized, so no TLS init guard) so that
/// every Count* call compiles to a thread-local add in the caller.
inline thread_local OpCounters g_thread_ops;

inline OpCounters& GlobalOps() { return g_thread_ops; }
inline void ResetGlobalOps() { g_thread_ops = OpCounters{}; }

inline void CountMults(uint64_t n) { GlobalOps().mults += n; }
inline void CountAdds(uint64_t n) { GlobalOps().adds += n; }
inline void CountSubs(uint64_t n) { GlobalOps().subs += n; }
inline void CountExps(uint64_t n) { GlobalOps().exps += n; }

}  // namespace factorml

#endif  // FACTORML_COMMON_OPCOUNT_H_
