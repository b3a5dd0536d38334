#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <utility>

#include "spans.h"

namespace trainbench {

using factorml::Result;
using factorml::Status;
using factorml::core::Algorithm;
namespace core = factorml::core;
namespace data = factorml::data;
namespace join = factorml::join;
namespace la = factorml::la;
namespace storage = factorml::storage;

size_t Workload::dims() const {
  size_t d = s_feats;
  for (const auto& a : attrs) d += a.feats;
  return d;
}

std::vector<std::string> WorkloadNames() {
  return {"m_gmm_spill", "f_logreg_multiway", "s_nn_epochs",
          "s_kmeans_shard_process"};
}

std::unique_ptr<Workload> FindWorkload(const std::string& name, bool small) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->s_rows = 400000;
  w->s_feats = 5;
  w->attrs = {{4000, 15}};
  if (name == "m_gmm_spill") {
    // The materialized join (8.7k pages, 71 MB) is 8.5x each worker's
    // pool. The target column only widens T; GMM does not read it.
    w->family = Family::kGmm;
    w->family_name = "gmm";
    w->train_entry = "core.TrainGmm";
    w->algorithm = Algorithm::kMaterialized;
    w->target = true;
    w->threads = 2;
    w->morsel_rows = 4096;
    w->prefetch = true;
    w->pool_pages = 1024;
    w->width = 5;
    w->iterations = 3;
  } else if (name == "f_logreg_multiway") {
    w->family = Family::kLogreg;
    w->family_name = "logreg";
    w->train_entry = "core.TrainLogreg";
    w->algorithm = Algorithm::kFactorized;
    w->attrs = {{4000, 15}, {200, 10}};
    w->target = true;
    w->threads = 2;
    w->morsel_rows = 4096;
    w->iterations = 16;
  } else if (name == "s_nn_epochs") {
    w->family = Family::kNn;
    w->family_name = "nn";
    w->train_entry = "core.TrainNn";
    w->algorithm = Algorithm::kStreaming;
    w->target = true;
    w->width = 50;
    w->iterations = 2;
    w->batch_rows = 1024;
  } else if (name == "s_kmeans_shard_process") {
    w->family = Family::kKmeans;
    w->family_name = "kmeans";
    w->train_entry = "core.TrainKmeans";
    w->algorithm = Algorithm::kStreaming;
    w->target = true;
    w->shards = 2;
    w->shard_backend = "process";
    w->delta_encoding = "sparse";
    w->width = 5;
    w->iterations = 30;
  } else {
    return nullptr;
  }
  if (small) {
    w->s_rows /= 20;
    for (auto& a : w->attrs) a.rows = std::max<int64_t>(10, a.rows / 20);
    w->pool_pages = std::max<size_t>(64, w->pool_pages / 20);
  }
  return w;
}

Result<join::NormalizedRelations> SetUp(const Workload& w,
                                        const std::string& dir, uint64_t seed,
                                        storage::BufferPool* pool) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.name = "bench";
  spec.s_rows = w.s_rows;
  spec.s_feats = w.s_feats;
  spec.attrs = w.attrs;
  spec.with_target = w.target;
  spec.seed = seed;
  {
    Span span("data.GenerateSynthetic");
    storage::BufferPool gen_pool(1024);
    auto generated = data::GenerateSynthetic(spec, &gen_pool);
    if (!generated.ok()) return generated.status();
  }
  Span open_span("storage.Table::Open");
  auto s = storage::Table::Open(dir + "/bench_s.fml");
  if (!s.ok()) return s.status();
  std::vector<storage::Table> attrs;
  for (size_t i = 1; i <= w.attrs.size(); ++i) {
    auto t =
        storage::Table::Open(dir + "/bench_r" + std::to_string(i) + ".fml");
    if (!t.ok()) return t.status();
    attrs.push_back(std::move(t).value());
  }
  open_span.Seconds();
  join::NormalizedRelations rel(std::move(s).value(), std::move(attrs),
                                w.target);
  FML_RETURN_IF_ERROR(rel.Validate());
  {
    Span span("join.BuildIndex");
    FML_RETURN_IF_ERROR(rel.BuildIndex(pool));
  }
  return rel;
}

double CpuSeconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage ru;
    if (getrusage(who, &ru) != 0) continue;
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                 1e-6;
  }
  return total;
}

namespace {

template <typename Options>
void ApplyKnobs(const Workload& w, la::KernelMode kernels,
                const std::string& temp_dir, int threads, Options* o) {
  o->batch_rows = w.batch_rows;
  o->threads = threads;
  o->morsel_rows = w.morsel_rows;
  o->prefetch = w.prefetch;
  o->shards = w.shards;
  o->shard_backend = w.shard_backend;
  o->delta_encoding = w.delta_encoding;
  o->kernels = kernels;
  o->temp_dir = temp_dir;
}

}  // namespace

TrainOutcome Train(const Workload& w, const join::NormalizedRelations& rel,
                   storage::BufferPool* pool, la::KernelMode kernels,
                   const std::string& temp_dir, int threads) {
  if (threads == 0) threads = w.threads;
  TrainOutcome out;
  pool->Clear();
  const double cpu0 = CpuSeconds();
  Span span(w.train_entry);
  switch (w.family) {
    case Family::kGmm: {
      factorml::gmm::GmmOptions o;
      ApplyKnobs(w, kernels, temp_dir, threads, &o);
      o.num_components = w.width;
      o.max_iters = w.iterations;
      out.status =
          core::TrainGmm(rel, o, w.algorithm, pool, &out.report).status();
      break;
    }
    case Family::kLogreg: {
      factorml::logreg::LogregOptions o;
      ApplyKnobs(w, kernels, temp_dir, threads, &o);
      o.max_iters = w.iterations;
      out.status =
          core::TrainLogreg(rel, o, w.algorithm, pool, &out.report).status();
      break;
    }
    case Family::kNn: {
      factorml::nn::NnOptions o;
      ApplyKnobs(w, kernels, temp_dir, threads, &o);
      o.hidden = {w.width};
      o.epochs = w.iterations;
      out.status =
          core::TrainNn(rel, o, w.algorithm, pool, &out.report).status();
      break;
    }
    case Family::kKmeans: {
      factorml::kmeans::KmeansOptions o;
      ApplyKnobs(w, kernels, temp_dir, threads, &o);
      o.num_clusters = w.width;
      o.max_iters = w.iterations;
      out.status =
          core::TrainKmeans(rel, o, w.algorithm, pool, &out.report).status();
      break;
    }
  }
  out.wall_s = span.Seconds();
  out.cpu_s = CpuSeconds() - cpu0;
  return out;
}

}  // namespace trainbench
