#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <random>

#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "join/attribute_view.h"
#include "join/join_cursor.h"
#include "join/materialize.h"
#include "la/kernels.h"
#include "net/frame.h"
#include "spans.h"
#include "storage/table.h"

namespace trainbench {

using factorml::Status;
namespace core = factorml::core;
namespace pipeline = factorml::core::pipeline;
namespace join = factorml::join;
namespace la = factorml::la;
namespace net = factorml::net;
namespace storage = factorml::storage;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Sample MedianSample(const std::vector<double>& v) {
  return Sample{Median(v), static_cast<int>(v.size())};
}

namespace {

/// Reads every row of `table` through a cleared pool of the workload's
/// size, row-major (Next) or as column strips (NextStrips).
Status ScanPass(const storage::Table& table, size_t pool_pages,
                size_t batch_rows, bool strips, double* seconds) {
  storage::BufferPool pool(pool_pages);
  Span span(strips ? "storage.TableScanner::NextStrips"
                   : "storage.TableScanner::Next");
  storage::TableScanner scanner(&table, &pool, batch_rows);
  int64_t rows = 0;
  if (strips) {
    storage::ColumnStrips out;
    while (scanner.NextStrips(pipeline::kDefaultStripRows, &out)) {
      rows += static_cast<int64_t>(out.num_rows);
    }
  } else {
    storage::RowBatch out;
    while (scanner.Next(&out)) rows += static_cast<int64_t>(out.num_rows);
  }
  *seconds = span.Seconds();
  if (!scanner.status().ok()) return scanner.status();
  if (rows != table.num_rows()) {
    return Status::Internal("scan probe read " + std::to_string(rows) +
                            " of " + std::to_string(table.num_rows()) +
                            " rows");
  }
  return Status::OK();
}

}  // namespace

Status ProbeJoinAndStorage(const Workload& w,
                           const join::NormalizedRelations& rel,
                           const std::string& dir, int reps, Metrics* out) {
  storage::BufferPool pool(w.pool_pages);

  std::vector<double> mat_s;
  double mat_pages = 0.0;
  const std::string t_path = dir + "/probe_T.fml";
  factorml::Result<storage::Table> t = Status::NotFound("not materialized");
  for (int r = 0; r < reps; ++r) {
    t = Status::NotFound("not materialized");  // close before rewriting
    pool.Clear();
    Span span("join.MaterializeJoin");
    t = join::MaterializeJoin(rel, &pool, t_path, w.threads);
    mat_s.push_back(span.Seconds());
    if (!t.ok()) return t.status();
    if (t->num_rows() != rel.s.num_rows()) {
      return Status::Internal("materialize probe: T has wrong row count");
    }
    mat_pages = static_cast<double>(t->num_data_pages());
  }
  (*out)["join.materialize_s"] = MedianSample(mat_s);
  (*out)["join.materialize_pages"] = Sample{mat_pages, reps};

  std::vector<double> cursor_rate;
  for (int r = 0; r < reps; ++r) {
    pool.Clear();
    Span span("join.JoinCursor::Next");
    join::JoinCursor cursor(&rel, &pool, w.batch_rows);
    join::JoinBatch batch;
    int64_t rows = 0;
    while (cursor.Next(&batch)) {
      rows += static_cast<int64_t>(batch.s_rows.num_rows);
    }
    const double s = span.Seconds();
    if (!cursor.status().ok()) return cursor.status();
    if (rows != rel.s.num_rows()) {
      return Status::Internal("cursor probe: wrong row count");
    }
    cursor_rate.push_back(static_cast<double>(rows) / s);
  }
  (*out)["join.cursor_rows_per_s"] = MedianSample(cursor_rate);

  std::vector<double> view_s;
  for (int r = 0; r < reps; ++r) {
    pool.Clear();
    Span span("join.AttributeTableView::Load");
    for (const auto& table : rel.attrs) {
      join::AttributeTableView view;
      FML_RETURN_IF_ERROR(view.Load(table, &pool));
      if (view.num_rows() != table.num_rows()) {
        return Status::Internal("view probe: wrong row count");
      }
    }
    view_s.push_back(span.Seconds());
  }
  (*out)["join.view_load_s"] = MedianSample(view_s);

  const storage::Table& scanned =
      w.algorithm == core::Algorithm::kMaterialized ? t.value() : rel.s;
  for (const bool strips : {false, true}) {
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
      double s = 0.0;
      FML_RETURN_IF_ERROR(
          ScanPass(scanned, w.pool_pages, w.batch_rows, strips, &s));
      secs.push_back(s);
    }
    (*out)[strips ? "storage.scan_strips_s" : "storage.scan_rows_s"] =
        MedianSample(secs);
  }
  t = Status::NotFound("probe done");
  std::remove(t_path.c_str());
  return Status::OK();
}

namespace {

/// A model that consumes every block and batch the strategy delivers and
/// does nothing with it: what remains of a training is data delivery.
class NoopProgram final : public pipeline::ModelProgram {
 public:
  NoopProgram(bool mini_batch, int iterations)
      : mini_batch_(mini_batch), iterations_(iterations) {}

  const char* Name() const override { return "NOOP"; }
  const char* TempStem() const override { return "noop"; }
  uint32_t Capabilities() const override {
    return (mini_batch_ ? pipeline::kMiniBatch : pipeline::kFullPass) |
           pipeline::kFactorized;
  }
  int MaxIterations() const override { return iterations_; }
  Status Init(const pipeline::PipelineContext&) override {
    return Status::OK();
  }
  void AccumulateDense(int, int, const pipeline::DenseBlock&) override {}
  void AccumulateFactorized(int, int,
                            const pipeline::FactorizedBlock&) override {}
  void VisitSlotState(
      int, int, const std::function<void(double*, size_t)>&) override {}
  void VisitIterationState(
      const std::function<void(double*, size_t)>&) override {}
  Status OnDenseBatch(const pipeline::PipelineContext&,
                      const pipeline::DenseBatch&) override {
    return Status::OK();
  }
  Status OnFactorizedBatch(const pipeline::PipelineContext&,
                           const pipeline::FactorizedBlock&) override {
    return Status::OK();
  }
  factorml::Result<bool> EndIteration(const pipeline::PipelineContext&,
                                      int) override {
    return false;
  }
  double Objective() const override { return 0.0; }

 private:
  bool mini_batch_;
  int iterations_;
};

}  // namespace

Status ProbeAccessPass(const Workload& w,
                       const join::NormalizedRelations& rel,
                       storage::BufferPool* pool, const std::string& dir,
                       int passes, int reps, Metrics* out) {
  pipeline::StrategyOptions sopt;
  sopt.batch_rows = w.batch_rows;
  sopt.threads = w.threads;
  sopt.morsel_rows = w.morsel_rows;
  sopt.prefetch = w.prefetch;
  sopt.shards = w.shards;
  sopt.kernels = la::KernelMode::kSimd;
  sopt.temp_dir = dir;
  // The process backend rebuilds an in-tree model family in each worker,
  // so the no-op runs the same shard plan through the in-process backend.
  sopt.shard_backend = "inproc";
  sopt.delta_encoding = w.delta_encoding;
  std::vector<double> per_pass;
  for (int r = 0; r < reps; ++r) {
    NoopProgram noop(w.mini_batch(), passes);
    core::TrainReport report;
    pool->Clear();
    Span span("core.pipeline::RunTraining(noop)");
    FML_RETURN_IF_ERROR(
        pipeline::RunTraining(rel, w.algorithm, sopt, &noop, pool, &report));
    span.Seconds();
    if (report.iterations != passes) {
      return Status::Internal("no-op probe ran " +
                              std::to_string(report.iterations) + " of " +
                              std::to_string(passes) + " passes");
    }
    double delivery = report.wall_seconds - report.materialize_seconds;
    if (w.shard_backend == "process") {
      // The process backend scans the shards concurrently, one worker
      // each, so a pass waits for the slowest shard scan, not for all of
      // them in turn as here.
      double sum = 0.0, slowest = 0.0;
      for (const auto& s : report.shard_stats) {
        sum += s.scan_seconds;
        slowest = std::max(slowest, s.scan_seconds);
      }
      delivery -= sum - slowest;
    }
    per_pass.push_back(delivery / passes);
  }
  (*out)["pipeline.access_pass_s"] = MedianSample(per_pass);
  std::remove((dir + "/m_noop_T.fml").c_str());
  return Status::OK();
}

const std::vector<std::string>& ProbedKernels() {
  static const std::vector<std::string> kNames = {
      "syrk_strip", "quadform_strip", "scatter_add_strip",
      "gather_add_rows_strip", "gemm_strip", "gemm_strip_t", "dist_strip"};
  return kNames;
}

namespace {

/// Median seconds per call of `fn`: calls are batched until one batch
/// takes at least 2 ms, then five batches are timed as spans.
double TimePerCall(const std::string& span_name,
                   const std::function<void()>& fn) {
  int reps = 1;
  for (;;) {
    factorml::Stopwatch sw;
    for (int i = 0; i < reps; ++i) fn();
    if (sw.ElapsedSeconds() >= 2e-3 || reps >= (1 << 24)) break;
    reps *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    Span span(span_name);
    for (int i = 0; i < reps; ++i) fn();
    per_call.push_back(span.Seconds() / reps);
  }
  return Median(per_call);
}

}  // namespace

void ProbeKernels(const Workload& w, uint64_t seed, Metrics* out) {
  la::SelectKernels(la::KernelMode::kSimd);
  const la::Kernels& kern = la::Active();
  const size_t d = w.dims();
  const size_t h = pipeline::kDefaultStripRows;
  const size_t m = std::max<size_t>(1, w.width);
  const auto domain = static_cast<size_t>(w.attrs[0].rows);
  const size_t run = std::max<size_t>(
      1, static_cast<size_t>(w.s_rows) / domain);  // S rows per R1 rid

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unif(-1.0, 1.0);
  auto filled = [&](size_t n) {
    std::vector<double> v(n);
    for (auto& x : v) x = unif(rng);
    return v;
  };
  const std::vector<double> strip = filled(d * h);  // d columns of h rows
  std::vector<const double*> cols(d);
  for (size_t j = 0; j < d; ++j) cols[j] = strip.data() + j * h;
  const std::vector<double> weights = filled(h);
  const std::vector<double> center = filled(d);
  const std::vector<double> sq = filled(d * d);
  const std::vector<double> a = filled(m * std::max(d, h));
  const std::vector<double> base = filled(domain * m);
  std::vector<int64_t> idx(h);
  const size_t first = std::uniform_int_distribution<size_t>(
      0, domain > h / run + 1 ? domain - h / run - 1 : 0)(rng);
  for (size_t r = 0; r < h; ++r) {
    idx[r] = static_cast<int64_t>(std::min(domain - 1, first + r / run));
  }
  std::vector<double> gram(d * d), vec_out(h), acc(domain),
      rows_out(h * m), c(m * std::max(d, h));

  struct Shape {
    double flops;
    double bytes;
    std::function<void()> call;
  };
  const double D = static_cast<double>(d), H = static_cast<double>(h),
               M = static_cast<double>(m);
  const std::map<std::string, Shape> shapes = {
      {"syrk_strip",
       {3 * D * D * H, 8 * (D * H + H + 2 * D * D),
        [&] { kern.syrk_strip(cols.data(), d, h, weights.data(), gram.data(),
                              d); }}},
      {"quadform_strip",
       {H * (2 * D * D + 2 * D), 8 * (D * H + D * D + H),
        [&] { kern.quadform_strip(strip.data(), d, h, sq.data(), d,
                                  vec_out.data()); }}},
      {"scatter_add_strip",
       {H, 8 * H + 8 * H + 16 * H,
        [&] { kern.scatter_add_strip(idx.data(), weights.data(), h,
                                     acc.data()); }}},
      {"gather_add_rows_strip",
       {H * M, 8 * H + 24 * H * M,
        [&] { kern.gather_add_rows_strip(base.data(), m, idx.data(), h, m,
                                         rows_out.data(), m); }}},
      {"gemm_strip",
       {2 * M * H * D, 8 * (M * D + D * H + M * H),
        [&] { kern.gemm_strip(a.data(), d, strip.data(), h, m, h, d, c.data(),
                              h, /*trans_b=*/false, /*accumulate=*/false); }}},
      {"gemm_strip_t",
       {2 * M * D * H, 8 * (M * H + D * H + 2 * M * D),
        [&] { kern.gemm_strip(a.data(), h, strip.data(), h, m, d, h, c.data(),
                              d, /*trans_b=*/true, /*accumulate=*/true); }}},
      {"dist_strip",
       {3 * D * H, 8 * (D * H + D + H),
        [&] { kern.dist_strip(cols.data(), d, h, center.data(),
                              vec_out.data()); }}},
  };
  for (const auto& name : ProbedKernels()) {
    const Shape& s = shapes.at(name);
    const double secs = TimePerCall("la." + name, s.call);
    (*out)["la." + name + ".gflops"] = Sample{s.flops / secs * 1e-9, 5};
    (*out)["la." + name + ".bytes"] = Sample{s.bytes, 1};
  }
}

Status ProbeFrameRoundtrip(size_t payload_bytes, uint64_t seed,
                           Metrics* out) {
  std::string payload(payload_bytes, '\0');
  std::mt19937_64 rng(seed);
  for (auto& ch : payload) ch = static_cast<char>(rng());
  Status failure;
  const double secs = TimePerCall("net.frame_roundtrip", [&] {
    const std::string wire = net::EncodeFrame(4, payload);
    net::FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    net::Frame frame;
    bool got = false;
    const Status st = decoder.Next(&frame, &got);
    if (!st.ok() || !got || frame.payload != payload) {
      failure = st.ok() ? Status::Internal("frame probe: payload mismatch")
                        : st;
    }
  });
  FML_RETURN_IF_ERROR(failure);
  (*out)["net.frame_roundtrip_us"] = Sample{secs * 1e6, 5};
  return Status::OK();
}

}  // namespace trainbench
