// trainbench — the end-to-end training benchmark of factorml.
//
//   trainbench --workload NAME --seed N --seconds S --trace 0|1
//              [--work-dir DIR] [--small] [--perturb-reference]
//
// One client trains one model at a time, back to back (a closed loop), on
// relations generated from --seed and loaded once. Every training is
// checked against a --kernels=scalar reference taken before the timed
// section. --trace 0 measures the end-to-end metrics; --trace 1 is the
// separate traced run that measures the per-layer metrics. The last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// README.md describes the workloads and every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "common/stopwatch.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace trainbench {
namespace {

using factorml::Status;
namespace core = factorml::core;
namespace la = factorml::la;
namespace storage = factorml::storage;

constexpr int kSetups = 5;          // set-ups per run; setup_s is their median
constexpr int kMinTrainings = 3;    // timed trainings even past --seconds
constexpr int kProbeReps = 3;       // repetitions of each layer probe
constexpr double kRelTolerance = 1e-9;  // simd vs scalar objective

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEndMetrics = {
    {"train_s", "s"},
    {"train_cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Model phases reported by each family (TrainReport::phases).
const std::vector<std::pair<std::string, std::vector<std::string>>>
    kFamilyPhases = {
        {"gmm", {"e_step", "m_step_mean", "m_step_cov"}},
        {"logreg", {"irls", "solve"}},
        {"nn", {"first_layer_fwd", "upper_layers", "w1_grad"}},
        {"kmeans", {"assign", "update"}},
};

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> defs = {
      {"data.generate_s", "s"},
      {"join.build_index_s", "s"},
      {"join.materialize_s", "s"},
      {"join.materialize_pages", "pages"},
      {"join.cursor_rows_per_s", "rows/s"},
      {"join.view_load_s", "s"},
      {"storage.scan_rows_s", "s"},
      {"storage.scan_strips_s", "s"},
      {"storage.pages_read", "pages"},
      {"storage.pool_hit_rate", "ratio"},
      {"storage.prefetch_hit_rate", "ratio"},
      {"storage.stall_s", "s"},
      {"pipeline.passes", "count"},
      {"pipeline.access_pass_s", "s"},
      {"pipeline.model_s", "s"},
      {"pipeline.slot_bytes", "bytes"},
      {"pipeline.delta_bytes", "bytes"},
  };
  for (const auto& k : ProbedKernels()) {
    defs.push_back({"la." + k + ".gflops", "GFLOP/s"});
    defs.push_back({"la." + k + ".bytes", "bytes"});
  }
  for (const auto& [family, phases] : kFamilyPhases) {
    for (const auto& p : phases) defs.push_back({family + "." + p + "_s", "s"});
  }
  const std::vector<MetricDef> tail = {
      {"ops.mults", "count"},
      {"ops.adds", "count"},
      {"ops.exps", "count"},
      {"exec.busy_max_s", "s"},
      {"exec.busy_imbalance", "ratio"},
      {"exec.chunks", "count"},
      {"exec.steals", "count"},
      {"exec.parallel_eff", "ratio"},
      {"shard.scan_s_max", "s"},
      {"shard.imbalance", "ratio"},
      {"net.bytes_sent", "bytes"},
      {"net.frames_sent", "count"},
      {"shard_rpc.workers_spawned", "count"},
      {"net.frame_roundtrip_us", "us"},
      {"obs.trace_overhead", "ratio"},
  };
  defs.insert(defs.end(), tail.begin(), tail.end());
  return defs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  bool small = false;
  bool perturb_reference = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (key == "--small") {
      a.small = true;
    } else if (key == "--perturb-reference") {
      a.perturb_reference = true;
    } else {
      const auto v = value();
      if (!v) return std::nullopt;
      char* end = nullptr;
      if (key == "--workload") {
        a.workload = *v;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::strtoull(v->c_str(), &end, 10);
      } else if (key == "--seconds") {
        a.seconds = std::strtod(v->c_str(), &end);
      } else if (key == "--trace") {
        a.trace = *v == "1";
        if (*v != "0" && *v != "1") return std::nullopt;
      } else if (key == "--work-dir") {
        a.work_dir = *v;
      } else {
        return std::nullopt;
      }
      if (end != nullptr && (*end != '\0' || end == v->c_str())) {
        return std::nullopt;
      }
    }
  }
  if (!have_workload || a.seconds <= 0.0) return std::nullopt;
  return a;
}

/// Why `o` fails the output check, or "" when it passes: non-ok status,
/// non-finite objective, wrong iteration count, or an objective off the
/// scalar reference by more than kRelTolerance (relative).
std::string CheckTraining(const Workload& w, const TrainOutcome& o,
                          double reference) {
  if (!o.status.ok()) return o.status.ToString();
  const double obj = o.report.final_objective;
  if (!std::isfinite(obj)) return "non-finite objective";
  if (o.report.iterations != w.iterations) {
    return "ran " + std::to_string(o.report.iterations) + " iterations, want " +
           std::to_string(w.iterations);
  }
  if (std::fabs(obj - reference) >
      kRelTolerance * std::fabs(reference) + 1e-12) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "objective %.17g vs reference %.17g", obj,
                  reference);
    return buf;
  }
  return "";
}

double ReportMetric(const core::TrainReport& r, const std::string& name) {
  for (const auto& s : r.metrics) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

double PhaseSeconds(const core::TrainReport& r, const std::string& name) {
  for (const auto& p : r.phases) {
    if (p.name == name) return p.seconds;
  }
  return 0.0;
}

/// Full passes of a training (epochs on the mini-batch plane).
int Passes(const Workload& w, const core::TrainReport& r) {
  return w.mini_batch() ? r.iterations
                        : static_cast<int>(ReportMetric(r, "pipeline.passes"));
}

/// max / mean of `v`; 1 (balanced) for fewer than two entries.
double Imbalance(const std::vector<double>& v) {
  if (v.size() < 2) return 1.0;
  double sum = 0.0, hi = 0.0;
  for (const double x : v) {
    sum += x;
    hi = std::max(hi, x);
  }
  return sum > 0.0 ? hi * static_cast<double>(v.size()) / sum : 1.0;
}

/// Median over reports of `f(report)`.
template <typename F>
Sample OverReports(const std::vector<core::TrainReport>& reports, F f) {
  std::vector<double> v;
  for (const auto& r : reports) v.push_back(static_cast<double>(f(r)));
  return MedianSample(v);
}

double PeakRssMb() {
  double kb = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage ru;
    if (getrusage(who, &ru) == 0) kb += static_cast<double>(ru.ru_maxrss);
  }
  return kb / 1024.0;
}

/// Per-layer metrics of the traced run from its traced trainings' reports.
void ReportLayerMetrics(const Workload& w,
                        const std::vector<core::TrainReport>& reports,
                        Metrics* m) {
  // The process backend's coordinator report covers only its own I/O; the
  // workers' scan windows come back in shard_stats.
  const bool remote_io = w.shard_backend == "process";
  auto io = [remote_io](const core::TrainReport& r) {
    storage::IoStats total = r.io;
    if (remote_io) {
      for (const auto& s : r.shard_stats) total += s.io;
    }
    return total;
  };
  (*m)["storage.pages_read"] = OverReports(
      reports, [&](const auto& r) { return io(r).pages_read; });
  (*m)["storage.pool_hit_rate"] = OverReports(reports, [&](const auto& r) {
    const auto s = io(r);
    const double lookups = static_cast<double>(s.pool_hits + s.pool_misses);
    return lookups > 0 ? static_cast<double>(s.pool_hits) / lookups : 0.0;
  });
  (*m)["storage.prefetch_hit_rate"] = OverReports(reports, [&](const auto& r) {
    const auto s = io(r);
    return s.prefetch_reads > 0 ? static_cast<double>(s.prefetch_hits) /
                                      static_cast<double>(s.prefetch_reads)
                                : 0.0;
  });
  (*m)["storage.stall_s"] = OverReports(reports, [&](const auto& r) {
    return static_cast<double>(io(r).stall_micros) * 1e-6;
  });
  (*m)["pipeline.passes"] =
      OverReports(reports, [&](const auto& r) { return Passes(w, r); });
  for (const char* name : {"pipeline.slot_bytes", "pipeline.delta_bytes",
                           "net.bytes_sent", "net.frames_sent",
                           "shard_rpc.workers_spawned"}) {
    (*m)[name] = OverReports(
        reports, [&](const auto& r) { return ReportMetric(r, name); });
  }
  for (const auto& [family, phases] : kFamilyPhases) {
    for (const auto& p : phases) {
      Sample& s = (*m)[family + "." + p + "_s"];
      s = OverReports(reports,
                      [&](const auto& r) { return PhaseSeconds(r, p); });
      if (family != w.family_name) s.samples = 0;  // phase never ran
    }
  }
  (*m)["ops.mults"] =
      OverReports(reports, [](const auto& r) { return r.ops.mults; });
  (*m)["ops.adds"] =
      OverReports(reports, [](const auto& r) { return r.ops.adds; });
  (*m)["ops.exps"] =
      OverReports(reports, [](const auto& r) { return r.ops.exps; });
  (*m)["exec.busy_max_s"] = OverReports(
      reports, [](const auto& r) { return r.BusyRange().second; });
  (*m)["exec.busy_imbalance"] = OverReports(
      reports, [](const auto& r) { return Imbalance(r.worker_busy_seconds); });
  (*m)["exec.chunks"] =
      OverReports(reports, [](const auto& r) { return r.morsel_chunks; });
  (*m)["exec.steals"] =
      OverReports(reports, [](const auto& r) { return r.steals; });
  (*m)["shard.scan_s_max"] = OverReports(reports, [](const auto& r) {
    double hi = 0.0;
    for (const auto& s : r.shard_stats) hi = std::max(hi, s.scan_seconds);
    return hi;
  });
  (*m)["shard.imbalance"] = OverReports(reports, [](const auto& r) {
    std::vector<double> v;
    for (const auto& s : r.shard_stats) v.push_back(s.scan_seconds);
    return Imbalance(v);
  });
}

void PrintMetric(const MetricDef& def, const Sample& s) {
  std::printf("metric %-32s %16.6f %-8s (n=%d)\n", def.name.c_str(), s.value,
              def.unit.c_str(), s.samples);
}

/// Every sample in run order, then the quartiles.
void PrintSpread(const char* name, std::vector<double> v) {
  std::printf("samples %s", name);
  for (const double x : v) std::printf(" %.4f", x);
  std::printf("\n");
  std::sort(v.begin(), v.end());
  auto q = [&v](double p) {
    return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1))];
  };
  std::printf("spread %-32s min=%.6f p25=%.6f p50=%.6f p75=%.6f max=%.6f "
              "(n=%zu)\n",
              name, v.front(), q(0.25), Median(v), q(0.75), v.back(),
              v.size());
}

/// One run of one workload: its relations, reference and results so far.
struct RunState {
  const Args& args;
  const Workload& w;
  std::string dir;  // scratch directory of this run
  storage::BufferPool pool;
  std::optional<factorml::join::NormalizedRelations> rel;
  double reference = 0.0;
  std::string reference_error;  // non-empty: every training fails
  int attempted = 0;
  int failed = 0;
  Metrics m;

  RunState(const Args& a, const Workload& workload, std::string scratch)
      : args(a), w(workload), dir(std::move(scratch)), pool(w.pool_pages) {}

  /// kSetups set-ups of the relations; the last one is trained on. Each
  /// generates into a fresh directory, as a user's first generation does:
  /// rewriting the previous set-up's files would make this one wait for
  /// their writeback. The old files stay until the run's clean-up.
  Status SetUpRelations() {
    std::vector<double> raw, secs;
    HostSpeed host;
    for (int i = 0; i < kSetups; ++i) {
      rel.reset();
      const std::string setup_dir = dir + "/setup" + std::to_string(i);
      std::error_code ec;
      std::filesystem::create_directories(setup_dir, ec);
      if (ec) return Status::IoError("cannot create " + setup_dir);
      Span span("setup");
      auto r = SetUp(w, setup_dir, args.seed, &pool);
      raw.push_back(span.Seconds());
      secs.push_back(host.Scale(raw.back(), 0.0).wall_s);
      if (!r.ok()) return r.status();
      rel.emplace(std::move(r).value());
    }
    m["setup_s"] = MedianSample(secs);
    PrintSpread("setup_s.raw", raw);
    PrintSpread("setup_s", secs);
    return Status::OK();
  }

  /// The scalar-kernel reference objective, outside the timed section (it
  /// also warms the OS page cache and every lazily initialized structure).
  void TakeReference() {
    const TrainOutcome ref =
        Train(w, *rel, &pool, la::KernelMode::kScalar, dir);
    reference_error = CheckTraining(w, ref, ref.report.final_objective);
    reference = ref.report.final_objective;
    if (args.perturb_reference) reference *= 1.0 + 1e-6;
    std::printf("reference %s\n", ref.report.ToString().c_str());
  }

  /// One simd training, checked against the reference.
  TrainOutcome TrainChecked(int threads = 0) {
    TrainOutcome o = Train(w, *rel, &pool, la::KernelMode::kSimd, dir, threads);
    ++attempted;
    const std::string err =
        reference_error.empty() ? CheckTraining(w, o, reference)
                                : "reference failed: " + reference_error;
    if (!err.empty()) {
      ++failed;
      std::printf("FAILED training %d: %s\n", attempted, err.c_str());
    }
    return o;
  }

  /// --trace 0: back-to-back trainings for --seconds (at least
  /// kMinTrainings), each followed by a calibration slice; times are scaled
  /// to the reference host speed (calibrate.h).
  void MeasureEndToEnd() {
    std::vector<double> raw_wall, raw_cpu, wall, cpu;
    factorml::Stopwatch clock;
    HostSpeed host;
    while (clock.ElapsedSeconds() < args.seconds ||
           static_cast<int>(wall.size()) < kMinTrainings) {
      const TrainOutcome o = TrainChecked();
      const SliceTime scaled = host.Scale(o.wall_s, o.cpu_s);
      raw_wall.push_back(o.wall_s);
      raw_cpu.push_back(o.cpu_s);
      wall.push_back(scaled.wall_s);
      cpu.push_back(scaled.cpu_s);
    }
    m["train_s"] = MedianSample(wall);
    m["train_cpu_s"] = MedianSample(cpu);
    PrintSpread("train_s.raw", raw_wall);
    PrintSpread("train_cpu_s.raw", raw_cpu);
    PrintSpread("train_s", wall);
    PrintSpread("train_cpu_s", cpu);
  }

  /// --trace 1: untraced and traced trainings alternate for --seconds
  /// (their ratio is the tracing overhead), then the threads=1 baseline
  /// and the layer probes.
  void MeasureLayers() {
    SpanRecorder& rec = SpanRecorder::Instance();
    std::vector<double> traced_s, untraced_s;
    std::vector<core::TrainReport> reports;
    factorml::Stopwatch clock;
    for (int i = 0; clock.ElapsedSeconds() < args.seconds ||
                    static_cast<int>(traced_s.size()) < 2;
         ++i) {
      const bool traced = i % 2 == 1;
      rec.Enable(traced);
      const TrainOutcome o = TrainChecked();
      rec.Enable(true);
      (traced ? traced_s : untraced_s).push_back(o.wall_s);
      if (traced) reports.push_back(o.report);
    }
    std::printf("traced %s\n", reports.back().ToString().c_str());
    ReportLayerMetrics(w, reports, &m);
    const double tn = Median(traced_s);
    const int n = static_cast<int>(traced_s.size());
    m["obs.trace_overhead"] = Sample{tn / Median(untraced_s), n};
    m["exec.parallel_eff"] = Sample{1.0, 1};
    if (w.threads > 1) {
      // T1 / (threads x Tn) against one threads=1 training.
      const TrainOutcome one = TrainChecked(/*threads=*/1);
      m["exec.parallel_eff"] = Sample{one.wall_s / (w.threads * tn), 1};
    }
    m["data.generate_s"] =
        MedianSample(rec.Durations("data.GenerateSynthetic"));
    m["join.build_index_s"] = MedianSample(rec.Durations("join.BuildIndex"));

    const int passes = static_cast<int>(m["pipeline.passes"].value);
    // A delta-sized frame: the mean ShardDelta where the workload ships
    // them, else its whole slot state; at least one page.
    const double deltas = OverReports(reports, [](const auto& r) {
                            return ReportMetric(r, "pipeline.shard_deltas");
                          }).value;
    const double frame_bytes = deltas > 0
                                   ? m["pipeline.delta_bytes"].value / deltas
                                   : m["pipeline.slot_bytes"].value;
    ProbeKernels(w, args.seed, &m);
    Status st = ProbeJoinAndStorage(w, *rel, dir, kProbeReps, &m);
    if (st.ok()) {
      st = ProbeAccessPass(w, *rel, &pool, dir, passes, kProbeReps, &m);
    }
    if (st.ok()) {
      st = ProbeFrameRoundtrip(
          std::max<size_t>(storage::kPageSize,
                           static_cast<size_t>(frame_bytes)),
          args.seed, &m);
    }
    ++attempted;
    if (!st.ok()) {
      ++failed;
      std::printf("FAILED layer probe: %s\n", st.ToString().c_str());
    }

    const double access = m["pipeline.access_pass_s"].value;
    m["pipeline.model_s"] = Sample{tn - passes * access, n};
    std::printf("reconcile train_s %.6f = passes %d x access_pass_s %.6f + "
                "model_s %.6f\n",
                tn, passes, access, m["pipeline.model_s"].value);
    std::fputs(rec.SelfTimeTable().c_str(), stdout);
    const std::string path = args.work_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + ".spans.json";
    if (rec.WriteJson(path)) std::printf("spans written to %s\n", path.c_str());
  }

  /// Prints every metric of `defs` and the result JSON as the last line. A
  /// metric that was not measured or is not finite counts as a failure.
  void Emit(const std::vector<MetricDef>& defs) {
    std::string metrics;
    for (const auto& def : defs) {
      const auto it = m.find(def.name);
      if (it == m.end() || !std::isfinite(it->second.value)) {
        ++attempted, ++failed;
        std::printf("FAILED metric %s is missing or not finite\n",
                    def.name.c_str());
        continue;
      }
      PrintMetric(def, it->second);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", def.name.c_str(),
                    it->second.value, def.unit.c_str());
      metrics += buf;
    }
    std::printf("fail_rate %.6f (%d of %d)\n",
                attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
                failed, attempted);
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metrics.c_str());
  }
};

int Run(const Args& args) {
  const std::unique_ptr<Workload> w = FindWorkload(args.workload, args.small);
  if (!w) {
    std::string known;
    for (const auto& n : WorkloadNames()) known += " " + n;
    std::fprintf(stderr, "trainbench: unknown workload '%s' (valid:%s)\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }
  const std::string dir =
      args.work_dir + "/" + w->name + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "trainbench: cannot create %s\n", dir.c_str());
    return 1;
  }
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{dir};

  SpanRecorder::Instance().Enable(args.trace);
  RunState run(args, *w, dir);
  std::printf("workload %s seed=%llu trace=%d d=%zu nS=%lld threads=%d "
              "pool_pages=%zu\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, w->dims(), static_cast<long long>(w->s_rows),
              w->threads, w->pool_pages);
  if (const Status st = run.SetUpRelations(); !st.ok()) {
    std::fprintf(stderr, "trainbench: set-up failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  run.TakeReference();
  if (args.trace) {
    run.MeasureLayers();
  } else {
    run.MeasureEndToEnd();
  }
  run.m["peak_rss_mb"] = Sample{PeakRssMb(), 1};
  run.Emit(args.trace ? PerLayerMetrics() : kEndToEndMetrics);
  return 0;
}

}  // namespace
}  // namespace trainbench

int main(int argc, char** argv) {
  const auto args = trainbench::ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: trainbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--small] "
                 "[--perturb-reference]\n");
    return 2;
  }
  return trainbench::Run(*args);
}
