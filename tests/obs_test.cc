// obs/ tests: the span tracer's ring-buffer overflow and concurrency
// contracts, the trace JSON's structure (parses, spans nest per thread),
// the metrics registry, the run manifest — and the plane's one hard
// promise, TraceParityTest: turning --trace on changes NOTHING about the
// computation. Objectives, op counts and (at I/O-deterministic schedules)
// page I/O are bit-identical to the untraced run.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/factorml.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "la/kernels.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace factorml {
namespace {

using data::GenerateSynthetic;
using factorml::testing::TempDir;
using storage::BufferPool;

data::SyntheticSpec Spec(const std::string& dir) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.s_rows = 3000;
  spec.s_feats = 3;
  spec.attrs = {data::AttributeSpec{40, 5}};
  spec.clusters = 3;
  spec.with_target = false;
  spec.seed = 33;
  return spec;
}

gmm::GmmOptions GmmOpt(const std::string& temp_dir) {
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;  // ~15 chunks over 3000 rows
  opt.temp_dir = temp_dir;
  return opt;
}

// ------------------------------------------------------------ TraceBuffer

TEST(TraceBufferTest, OverflowDropsCountedAndBounded) {
  obs::TraceBuffer buf(4);
  obs::TraceEvent ev;
  ev.name = "x";
  ev.cat = obs::kCatExec;
  for (int i = 0; i < 10; ++i) {
    ev.ts_micros = static_cast<uint64_t>(i);
    const bool stored = buf.Emit(ev);
    EXPECT_EQ(stored, i < 4);
  }
  // Full ring: events beyond capacity are dropped and counted — never
  // overwritten (the first four survive untouched) and never waited on.
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  for (size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf.event(i).ts_micros, i);
  }
  buf.Reset(8);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 8u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(TraceBufferTest, ZeroCapacityClampsToOne) {
  obs::TraceBuffer buf(0);
  EXPECT_EQ(buf.capacity(), 1u);
}

// Pool workers emit concurrently into their own rings; the flush after
// Stop reads every buffer's published prefix. TSan-clean by construction
// (single-writer rings, release/acquire on size).
TEST(TracerTest, ConcurrentEmitFromPoolWorkers) {
  obs::Tracer::Instance().Start(64);
  const uint64_t before = obs::Tracer::Instance().TotalEvents();
  exec::ThreadPool::Instance().Run(4, [](int w) {
    for (int i = 0; i < 100; ++i) {
      obs::TraceSpan span(obs::kCatExec, "work");
      span.Arg("worker", w);
      obs::TraceInstant(obs::kCatExec, "tick", "i", i);
    }
  });
  obs::Tracer::Instance().Stop();
  const uint64_t emitted = obs::Tracer::Instance().TotalEvents() - before;
  // 4 workers x (100 spans + 100 instants), plus the pool's own
  // instrumentation of the region: one "region" span and 4 "task" spans.
  EXPECT_EQ(emitted + obs::Tracer::Instance().TotalDropped(), 805u);
  EXPECT_FALSE(obs::TraceEnabled());
}

TEST(TracerTest, DisabledEmitsNothing) {
  ASSERT_FALSE(obs::TraceEnabled());
  const uint64_t before = obs::Tracer::Instance().TotalEvents();
  {
    obs::TraceSpan span(obs::kCatExec, "ghost");
    span.Arg("a", 1);
    obs::TraceInstant(obs::kCatExec, "ghost_i");
  }
  EXPECT_EQ(obs::Tracer::Instance().TotalEvents(), before);
}

// ------------------------------------------------------- trace JSON shape

/// One parsed trace event (the fields the structural checks need).
struct ParsedEvent {
  std::string name;
  char ph = 'X';
  uint64_t ts = 0;
  uint64_t dur = 0;
  int tid = 0;
  std::string args;  // raw args object text, "" when absent
};

/// Extracts `"key": <number>` from one event line.
uint64_t NumField(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const size_t p = line.find(pat);
  if (p == std::string::npos) return 0;
  return std::stoull(line.substr(p + pat.size()));
}

std::string StrField(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const size_t p = line.find(pat);
  if (p == std::string::npos) return "";
  const size_t b = p + pat.size();
  return line.substr(b, line.find('"', b) - b);
}

/// Parses the tracer's one-event-per-line JSON (WriteJson's fixed
/// format). Also sanity-checks the envelope.
std::vector<ParsedEvent> ParseTrace(const std::string& path,
                                    std::string* other_data) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<ParsedEvent> events;
  std::string line;
  bool saw_open = false, saw_events = false, saw_close = false;
  while (std::getline(in, line)) {
    if (line == "{") saw_open = true;
    if (line.rfind("\"otherData\": ", 0) == 0 && other_data != nullptr) {
      *other_data = line.substr(13, line.size() - 14);  // strip key + ','
    }
    if (line.rfind("\"traceEvents\": [", 0) == 0) {
      saw_events = true;
      continue;
    }
    if (line == "}") saw_close = true;
    if (!saw_events || line.rfind("{\"name\": ", 0) != 0) continue;
    ParsedEvent ev;
    ev.name = StrField(line, "name");
    ev.ph = StrField(line, "ph")[0];
    ev.ts = NumField(line, "ts");
    ev.dur = NumField(line, "dur");
    ev.tid = static_cast<int>(NumField(line, "tid"));
    const size_t ap = line.find("\"args\": {");
    if (ap != std::string::npos) {
      ev.args = line.substr(ap + 8, line.find('}', ap) - ap - 7);
    }
    EXPECT_EQ(NumField(line, "pid"), 1u);
    events.push_back(ev);
  }
  EXPECT_TRUE(saw_open && saw_events && saw_close)
      << "trace envelope malformed: " << path;
  return events;
}

TEST(TracerTest, TrainedTraceParsesCoversSpansAndNests) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(Spec(dir.str()), &pool)).value();
  gmm::GmmOptions opt = GmmOpt(dir.str());
  opt.threads = 4;
  opt.steal = true;
  opt.shards = 3;
  opt.prefetch = true;

  obs::Tracer::Instance().Start(1024);
  pool.Clear();
  auto params =
      core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, nullptr);
  obs::Tracer::Instance().Stop();
  ASSERT_TRUE(params.ok()) << params.status().ToString();

  obs::RunManifest manifest;
  manifest.binary = "obs_test";
  manifest.runtime = opt;
  const std::string path = dir.str() + "/trace.json";
  FML_ASSERT_OK(obs::Tracer::Instance().WriteJson(path, manifest.ToJson()));

  std::string other_data;
  const std::vector<ParsedEvent> events = ParseTrace(path, &other_data);
  EXPECT_EQ(other_data, manifest.ToJson());
  ASSERT_FALSE(events.empty());

  // Every layer of the runtime shows up: parallel regions and worker
  // tasks (exec), morsels with the owner/stolen tag (morsel), demand
  // reads and the async prefetch plane (storage), iterations, scans,
  // shard windows and the delta plane (pipeline), model phases (phase).
  std::map<std::string, int> count;
  for (const auto& ev : events) count[ev.name]++;
  for (const char* name :
       {"region", "task", "chunk", "demand_read", "prefetch_issue",
        "prefetch_drain", "iteration", "scan", "shard_scan",
        "delta_extract", "delta_apply", "delta_merge", "e_step"}) {
    EXPECT_GT(count[name], 0) << name;
  }
  // 2 iterations x 3 passes x 3 shards of scan windows.
  EXPECT_EQ(count["shard_scan"], 18);
  EXPECT_EQ(count["delta_extract"], 18);
  EXPECT_EQ(count["delta_merge"], 6);
  EXPECT_EQ(count["iteration"], 2);
  for (const auto& ev : events) {
    if (ev.name == "chunk") {
      EXPECT_NE(ev.args.find("\"chunk\":"), std::string::npos);
      EXPECT_NE(ev.args.find("\"stolen\":"), std::string::npos);
    }
  }

  // Complete spans nest properly within each thread: sorted by (ts asc,
  // dur desc), every span fits inside the enclosing one still open. This
  // is what makes the file render as a sane flame graph.
  std::map<int, std::vector<ParsedEvent>> by_tid;
  for (const auto& ev : events) {
    if (ev.ph == 'X') by_tid[ev.tid].push_back(ev);
  }
  EXPECT_GE(by_tid.size(), 2u);  // dispatcher + at least one pool worker
  for (auto& [tid, evs] : by_tid) {
    std::stable_sort(evs.begin(), evs.end(),
                     [](const ParsedEvent& a, const ParsedEvent& b) {
                       return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
                     });
    std::vector<uint64_t> open_ends;
    for (const auto& ev : evs) {
      while (!open_ends.empty() && open_ends.back() <= ev.ts) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        EXPECT_LE(ev.ts + ev.dur, open_ends.back())
            << ev.name << " overlaps its enclosing span on tid " << tid;
      }
      open_ends.push_back(ev.ts + ev.dur);
    }
  }
}

// --------------------------------------------------------------- metrics

TEST(MetricsTest, CounterGaugeHistogramRoundTrip) {
  auto& reg = obs::Registry::Instance();
  obs::Counter* c = reg.GetCounter("test.counter");
  obs::Gauge* g = reg.GetGauge("test.gauge");
  obs::Histogram* h = reg.GetHistogram("test.hist");
  EXPECT_EQ(reg.GetCounter("test.counter"), c);  // stable pointers

  const obs::MetricsSnapshot before = reg.Snap();
  c->Add(5);
  g->Set(2.5);
  h->Record(0);    // bucket 0: < 1us
  h->Record(3);    // bucket 2: < 4us
  h->Record(100);  // bucket 7: < 128us
  const obs::MetricsSnapshot delta = obs::SnapshotDelta(reg.Snap(), before);

  std::map<std::string, const obs::MetricSample*> by_name;
  for (const auto& s : delta) by_name[s.name] = &s;
  ASSERT_TRUE(by_name.count("test.counter"));
  EXPECT_EQ(by_name["test.counter"]->value, 5.0);
  ASSERT_TRUE(by_name.count("test.gauge"));
  EXPECT_EQ(by_name["test.gauge"]->value, 2.5);  // gauges: after value
  ASSERT_TRUE(by_name.count("test.hist"));
  const obs::MetricSample& hs = *by_name["test.hist"];
  EXPECT_EQ(hs.count, 3u);
  EXPECT_EQ(hs.sum, 103u);
  ASSERT_EQ(hs.buckets.size(), obs::Histogram::kBuckets);
  EXPECT_EQ(hs.buckets[0], 1u);
  EXPECT_EQ(hs.buckets[2], 1u);
  EXPECT_EQ(hs.buckets[7], 1u);
}

TEST(MetricsTest, HistogramOverflowLandsInLastBucket) {
  obs::Histogram h;
  h.Record(uint64_t{1} << 40);  // ~13 days in micros: off the scale
  EXPECT_EQ(h.Bucket(obs::Histogram::kBuckets - 1), 1u);
}

TEST(MetricsTest, SnapshotToJsonFlattens) {
  auto& reg = obs::Registry::Instance();
  const obs::MetricsSnapshot before = reg.Snap();
  reg.GetCounter("test.json_counter")->Add(7);
  reg.GetHistogram("test.json_hist")->Record(10);
  const std::string json =
      obs::SnapshotToJson(obs::SnapshotDelta(reg.Snap(), before));
  EXPECT_NE(json.find("\"test.json_counter\": 7"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.json_hist.count\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.json_hist.sum_micros\": 10"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsTest, TrainingPopulatesReportMetrics) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(Spec(dir.str()), &pool)).value();
  gmm::GmmOptions opt = GmmOpt(dir.str());
  core::TrainReport report;
  auto params = core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                               &pool, &report);
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  std::map<std::string, const obs::MetricSample*> by_name;
  for (const auto& s : report.metrics) by_name[s.name] = &s;
  // The chunked run executed morsels and counted iterations; demand
  // stalls were recorded per physical read.
  ASSERT_TRUE(by_name.count("exec.chunks"));
  EXPECT_GE(by_name["exec.chunks"]->value, 15.0);
  ASSERT_TRUE(by_name.count("pipeline.iterations"));
  EXPECT_EQ(by_name["pipeline.iterations"]->value, 2.0);
  ASSERT_TRUE(by_name.count("storage.demand_stall_micros"));
  EXPECT_GT(by_name["storage.demand_stall_micros"]->count, 0u);
  ASSERT_TRUE(by_name.count("exec.morsel_micros"));
  EXPECT_EQ(by_name["exec.morsel_micros"]->count,
            by_name["exec.chunks"]->value);
}

// -------------------------------------------------------------- manifest

TEST(ManifestTest, FromArgsResolvesAndRoundTrips) {
  TempDir dir;
  const std::string trace_arg = "--trace=" + dir.str() + "/t.json";
  const std::string ckpt_arg = "--checkpoint-dir=" + dir.str();
  const char* argv[] = {"prog",
                        trace_arg.c_str(),
                        "--threads=4",
                        "--steal=on",
                        "--shards=3",
                        "--seed=7",
                        "--morsel-rows=200",
                        "--batch=512",
                        "--shard-transport=tcp",
                        "--delta-encoding=sparse",
                        ckpt_arg.c_str(),
                        "--checkpoint-every=2"};
  ArgParser args(12, const_cast<char**>(argv));
  const obs::RunManifest m = obs::RunManifest::FromArgs("obs_test", args);
  EXPECT_EQ(m.binary, "obs_test");
  EXPECT_EQ(m.runtime.threads, 4);
  EXPECT_TRUE(m.runtime.steal);
  EXPECT_EQ(m.runtime.shards, 3);
  EXPECT_EQ(m.runtime.morsel_rows, 200);
  EXPECT_EQ(m.runtime.batch_rows, 512u);
  EXPECT_EQ(m.seed, 7u);
  EXPECT_FALSE(m.git_describe.empty());

  // Every runtime knob is written, not only the ones a manifest used to
  // re-declare.
  const std::string json = m.ToJson();
  for (const std::string& key : std::vector<std::string>{
           "\"binary\"", "\"git_describe\"", "\"threads\": 4",
        "\"steal\": true", "\"shards\": 3", "\"morsel_rows\": 200",
        "\"batch_rows\": 512", "\"shard_transport\": \"tcp\"",
        "\"delta_encoding\": \"sparse\"",
        "\"checkpoint_dir\": \"" + dir.str() + "\"",
        "\"checkpoint_every\": 2", "\"kernels\": \"scalar\"",
        "\"shard_backend\": \"inproc\"", "\"shard_timeout_ms\":",
        "\"prefetch\": false", "\"seed\": 7", "\"trace\":",
        "\"trace_buffer_kb\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }

  const std::string out = dir.str() + "/manifest.json";
  FML_ASSERT_OK(m.WriteTo(out));
  std::ifstream in(out);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, json);
}

TEST(ManifestTest, JsonEscapesFreeFormFields) {
  obs::RunManifest m;
  m.binary = "a\"b\\c";
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos) << json;
}

// ----------------------------------------------------------- trace parity
//
// The plane's hard constraint: tracing observes, never perturbs. An
// instrumented run touches only per-thread rings and the monotonic clock
// — no OpCounters, no IoStats, no scheduler state — so objectives, op
// counts and model params are bit-identical to the untraced run at every
// schedule, and page I/O is bit-identical wherever the schedule itself is
// I/O-deterministic (steal off; stealing re-homes chunks into thief
// pools, making page counters schedule-unstable even without tracing —
// same caveat as ShardParityTest).

TEST(TraceParityTest, TraceOnIsBitIdenticalToTraceOff) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(Spec(dir.str()), &pool)).value();
  gmm::GmmOptions opt = GmmOpt(dir.str());
  for (const int threads : {1, 4}) {
    for (const bool steal : {false, true}) {
      for (const int shards : {1, 3}) {
        opt.threads = threads;
        opt.steal = steal;
        opt.shards = shards;
        const std::string tag = "threads=" + std::to_string(threads) +
                                " steal=" + std::to_string(steal) +
                                " shards=" + std::to_string(shards);

        pool.Clear();
        core::TrainReport off_report;
        auto off = core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                  &pool, &off_report);
        ASSERT_TRUE(off.ok()) << off.status().ToString();

        obs::Tracer::Instance().Start(1024);
        pool.Clear();
        core::TrainReport on_report;
        auto on = core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                 &pool, &on_report);
        obs::Tracer::Instance().Stop();
        ASSERT_TRUE(on.ok()) << on.status().ToString();
        EXPECT_GT(obs::Tracer::Instance().TotalEvents(), 0u) << tag;

        EXPECT_EQ(on_report.final_objective, off_report.final_objective)
            << tag;
        EXPECT_EQ(on_report.ops.mults, off_report.ops.mults) << tag;
        EXPECT_EQ(on_report.ops.adds, off_report.ops.adds) << tag;
        EXPECT_EQ(on_report.ops.subs, off_report.ops.subs) << tag;
        EXPECT_EQ(on_report.ops.exps, off_report.ops.exps) << tag;
        EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(off.value(), on.value()), 0.0)
            << tag;
        if (!steal) {
          EXPECT_EQ(on_report.io.pages_read, off_report.io.pages_read)
              << tag;
          EXPECT_EQ(on_report.io.pages_written,
                    off_report.io.pages_written)
              << tag;
          EXPECT_EQ(on_report.io.pool_misses, off_report.io.pool_misses)
              << tag;
        }
      }
    }
  }
}

// The simd kernel plane must uphold the same contract: under
// --kernels=simd, trace-on vs trace-off is still bit-identical (simd
// relaxes scalar-vs-simd numerics, never run-to-run determinism), the
// strip decodes show up as "decode_strip" storage spans in the flushed
// trace, and the dispatch gauge plus both latency histograms record the
// batched plane's activity.
TEST(TraceParityTest, SimdKernelsBitIdenticalUnderTraceWithStripSpans) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(Spec(dir.str()), &pool)).value();
  gmm::GmmOptions opt = GmmOpt(dir.str());
  opt.kernels = la::KernelMode::kSimd;

  const obs::Histogram* decode =
      obs::Registry::Instance().GetHistogram("storage.decode_strip_micros");
  const obs::Histogram* batch =
      obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
  const uint64_t decode_before = decode->Count();
  const uint64_t batch_before = batch->Count();

  for (const auto algo :
       {core::Algorithm::kMaterialized, core::Algorithm::kStreaming,
        core::Algorithm::kFactorized}) {
    for (const int threads : {1, 4}) {
      opt.threads = threads;
      const std::string tag = std::string(core::AlgorithmName(algo)) +
                              " threads=" + std::to_string(threads);

      pool.Clear();
      core::TrainReport off_report;
      auto off = core::TrainGmm(rel, opt, algo, &pool, &off_report);
      ASSERT_TRUE(off.ok()) << off.status().ToString();

      obs::Tracer::Instance().Start(1024);
      pool.Clear();
      core::TrainReport on_report;
      auto on = core::TrainGmm(rel, opt, algo, &pool, &on_report);
      obs::Tracer::Instance().Stop();
      ASSERT_TRUE(on.ok()) << on.status().ToString();

      EXPECT_EQ(on_report.final_objective, off_report.final_objective)
          << tag;
      EXPECT_EQ(on_report.ops.mults, off_report.ops.mults) << tag;
      EXPECT_EQ(on_report.ops.adds, off_report.ops.adds) << tag;
      EXPECT_EQ(on_report.ops.subs, off_report.ops.subs) << tag;
      EXPECT_EQ(on_report.ops.exps, off_report.ops.exps) << tag;
      EXPECT_EQ(on_report.io.pages_read, off_report.io.pages_read) << tag;
      EXPECT_EQ(on_report.io.pages_written, off_report.io.pages_written)
          << tag;
      EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(off.value(), on.value()), 0.0)
          << tag;
    }
  }

  // The simd runs decoded strips and dispatched batch kernels; both
  // latency histograms saw them.
  EXPECT_GT(decode->Count(), decode_before);
  EXPECT_GT(batch->Count(), batch_before);
  // 0 = scalar, 1 = portable vector, 2 = avx2; a simd run went last.
  EXPECT_GE(obs::Registry::Instance().GetGauge("kernels.dispatch")->Value(),
            1.0);

  // Only the materialized driver reaches PageCursor::ReadStrips — the
  // fused page-walk decode that emits "decode_strip" spans (streaming and
  // factorized transpose already-assembled rows in memory, no page walk).
  // One traced M run's flush must carry them.
  obs::Tracer::Instance().Start(1024);
  pool.Clear();
  opt.threads = 2;
  auto traced = core::TrainGmm(rel, opt, core::Algorithm::kMaterialized,
                               &pool, nullptr);
  obs::Tracer::Instance().Stop();
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  const std::string path = dir.str() + "/simd_trace.json";
  FML_ASSERT_OK(obs::Tracer::Instance().WriteJson(path, "{}"));
  const std::vector<ParsedEvent> events = ParseTrace(path, nullptr);
  int decode_spans = 0;
  for (const auto& ev : events) {
    if (ev.name == "decode_strip") ++decode_spans;
  }
  EXPECT_GT(decode_spans, 0);
}

}  // namespace
}  // namespace factorml
