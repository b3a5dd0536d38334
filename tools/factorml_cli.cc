// factorml_cli — command-line delivery of the factorized trainers (the
// paper's closing question of how to deliver factorization to end users:
// here, as a standalone tool over the library).
//
// Subcommands:
//   generate   --dir=D [--ns=N --nr=N1[,N2..] --ds=D --dr=D1[,D2..]]
//              [--target] [--one_hot] [--seed=S]
//              Creates s.fml / r1.fml ... under --dir (or --shape=<name>
//              for a published real-dataset shape, with --scale).
//   import     --s_csv=F --r_csv=F1[,F2..] --dir=D [--target]
//              Imports normalized relations from CSV files (S keys first:
//              SID, FK1..FKq; attribute keys: RID).
//   stats      --dir=D [--target]
//              Prints joined-table feature statistics computed without
//              joining (factorized aggregates).
//   train      --dir=D --model=gmm|nn|linreg|kmeans|logreg
//              [--algo=f|s|m|all] (model-specific flags as below)
//   train-gmm  --dir=D [--algo=f|s|m|all] [--k=5 --iters=10 --tol=0]
//              [--target]
//   train-nn   --dir=D [--algo=f|s|m|all] [--nh=50 --epochs=10
//              --lr=0.05 --act=sigmoid|tanh|relu|identity
//              --dropout=0 --momentum=0 --weight_decay=0 --shuffle]
//   train-linreg --dir=D [--algo=f|s|m|all] [--l2=1e-3 --no_intercept]
//   train-kmeans --dir=D [--algo=f|s|m|all] [--k=5 --iters=10 --tol=0]
//              [--target]
//   train-logreg --dir=D [--algo=f|s|m|all] [--l2=1e-3 --iters=4 --tol=0
//              --no_intercept]
//   export     --dir=D --out=F.csv [--table=s|r1|r2...]
//
// Every train run prints a TrainReport (wall time, page I/O, flops). An
// unknown --algo exits 2 listing the choices, before any data is read.
// Every train subcommand reads the same runtime flags
// (core::RuntimeOptionsFromFlags), described below, plus `--batch=N`:
// rows per streamed batch, default 8192 (NN: the mini-batch size,
// default 1024); --batch < 1 exits 1 naming the flag.
// `--threads=N` (any subcommand, default 1) runs the trainers on the
// exec/ morsel-driven parallel runtime; --threads=1 is bit-identical to
// the serial reproduction. `--buffer-pages=N` (train subcommands, default
// 8192) sizes the buffer pool.
//
// `--morsel-rows=N` (any train subcommand, default 0) switches full
// passes to the chunk-ordered work scheduler: the pass becomes fixed
// N-row chunks (whole FK1 runs for the S/F strategies) reduced in chunk
// order, so results depend on N but not on --threads. `--steal=on`
// additionally lets idle workers take chunks from busy ones — same bits,
// better balance on skewed FK1 runs.
//
// `--prefetch=on` (any train subcommand, default off) turns on the
// unified I/O cursor plane's asynchronous double-buffered prefetch: while
// a worker computes on one morsel, a background I/O crew lands the pages
// of its next scheduled morsel (and the next `--prefetch-depth=N`
// batches, default 2) in its buffer pool. Residency-only — same bits
// either way; the TrainReport gains the prefetch hit rate and demand
// stall time.
//
// `--shards=N` (any full-pass train subcommand, default 1) runs the pass
// through the rid-range shard plane: the chunk plan is split into N
// contiguous spans, each span is scanned as its own shard (own IoStats
// window and busy time in the TrainReport), its accumulator slots are
// round-tripped through serialized ShardDelta bytes — the wire seam a
// distributed backend plugs into — and the deltas merge in shard-id
// order. Implies `--morsel-rows` (default chunk size when unset);
// objectives, params and op counts are bit-identical to --shards=1 at the
// same resolved morsel size for any --threads/--steal/--prefetch, and
// total page I/O matches too when steal and prefetch are off. The NN
// family (mini-batch SGD) rejects --shards > 1.
//
// `--shard-backend=inproc|process` (any full-pass train subcommand,
// default inproc) selects where the shard scans execute. `inproc` drives
// them in this process — byte-identical to the pre-backend engine.
// `process` spawns one factormld worker process per shard and exchanges
// the ShardDelta bytes over length-prefixed socket frames (Unix-domain
// under the data dir, or TCP loopback with `--shard-transport=tcp`);
// results stay bit-identical by the same chunk-ordered merge, and the
// TrainReport's shard_stats become per-node I/O windows. A worker that
// dies or stalls past `--shard-timeout-ms=N` (default 30000) has its
// spans requeued on a healthy worker — bit-identically — or, when the
// model vetoes mid-iteration recovery, the run restarts deterministically
// on the survivors. `--factormld=PATH` overrides the worker binary
// (default: $FACTORMLD, then a sibling of the running executable, then
// $PATH).
//
// `--kernels=scalar|simd` (any train subcommand, default scalar) selects
// the compute kernel backend. `scalar` replays the seed's exact loops —
// bit-identical objectives, params, op counts and page I/O. `simd` swaps
// in the runtime-dispatched vector kernel plane (AVX2+FMA where the CPU
// has it, portable 32-byte vector lanes otherwise) and switches the
// full-pass strategies to batched column-strip decode: pages are decoded
// into cache-blocked column-major strips and the models consume whole
// strips per kernel call. Op counts and page I/O stay exactly equal to
// scalar at the same schedule; floating-point results agree to
// reassociation tolerance. Unknown values exit 2 listing the choices.
//
// `--trace=PATH` (any subcommand) records per-worker runtime spans —
// parallel regions, morsel executions (owner vs stolen), demand reads,
// prefetch requests, shard scans and delta merges, model phases — and
// writes Chrome trace-event JSON to PATH at exit (open in Perfetto or
// chrome://tracing), plus the run manifest as PATH.manifest.json.
// `--trace-buffer-kb=N` (default 1024) sizes each worker's ring buffer;
// overflow drops events (counted), never blocks. Tracing does not perturb
// results: objectives, op counts and page I/O stay bit-identical to the
// untraced run (obs_test pins this).

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/factorml.h"
#include "data/csv.h"
#include "exec/thread_pool.h"
#include "obs/manifest.h"
#include "obs/trace.h"

namespace factorml {
namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "factorml_cli: %s\n", msg.c_str());
  return 1;
}

int FailStatus(const Status& st) { return Fail(st.ToString()); }

/// A malformed flag value: exit 2, like the shared ArgParser getters.
int FailUsage(const Status& st) {
  Fail(st.ToString());
  return 2;
}

/// Loads relations previously written by `generate` or `import`:
/// <dir>/s.fml plus <dir>/r1.fml, r2.fml, ... (as many as exist).
Result<join::NormalizedRelations> LoadRelations(const std::string& dir,
                                                bool has_target,
                                                storage::BufferPool* pool) {
  FML_ASSIGN_OR_RETURN(storage::Table s, storage::Table::Open(dir + "/s.fml"));
  std::vector<storage::Table> attrs;
  for (int i = 1;; ++i) {
    auto t = storage::Table::Open(dir + "/r" + std::to_string(i) + ".fml");
    if (!t.ok()) break;
    attrs.push_back(std::move(t).value());
  }
  if (attrs.empty()) {
    return Status::NotFound("no attribute tables (r1.fml, ...) in " + dir);
  }
  join::NormalizedRelations rel(std::move(s), std::move(attrs), has_target);
  FML_RETURN_IF_ERROR(rel.Validate());
  FML_RETURN_IF_ERROR(rel.BuildIndex(pool));
  return rel;
}

/// Parses `--algo`; unknown values list the valid choices instead of
/// silently falling back.
Result<std::vector<core::Algorithm>> ParseAlgos(const std::string& spec) {
  if (spec == "m") {
    return std::vector<core::Algorithm>{core::Algorithm::kMaterialized};
  }
  if (spec == "s") {
    return std::vector<core::Algorithm>{core::Algorithm::kStreaming};
  }
  if (spec == "f") {
    return std::vector<core::Algorithm>{core::Algorithm::kFactorized};
  }
  if (spec == "all") {
    return std::vector<core::Algorithm>{core::Algorithm::kMaterialized,
                                        core::Algorithm::kStreaming,
                                        core::Algorithm::kFactorized};
  }
  return Status::InvalidArgument(
      "unknown --algo '" + spec +
      "' (valid: m = materialized, s = streaming, f = factorized, all)");
}

int CmdGenerate(const ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  if (dir.empty()) return Fail("generate requires --dir");
  storage::BufferPool pool(1024);

  const std::string shape_name = args.GetString("shape", "");
  if (!shape_name.empty()) {
    auto shape = data::FindRealShape(shape_name);
    if (!shape.ok()) return FailStatus(shape.status());
    auto rel = data::GenerateRealShape(
        shape.value(), dir, &pool, args.GetDouble("scale", 1.0),
        static_cast<uint64_t>(args.GetInt("seed", 42)),
        args.GetBool("target", false));
    if (!rel.ok()) return FailStatus(rel.status());
    std::printf("generated shape %s under %s (nS=%lld)\n",
                shape_name.c_str(), dir.c_str(),
                static_cast<long long>(rel->s.num_rows()));
    return 0;
  }

  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.name = "cli";
  spec.s_rows = args.GetInt("ns", 100000);
  spec.s_feats = static_cast<size_t>(args.GetInt("ds", 5));
  const auto nr = args.GetIntList("nr", {1000});
  const auto dr = args.GetIntList("dr", {15});
  if (nr.size() != dr.size()) {
    return Fail("--nr and --dr must have the same number of entries");
  }
  for (size_t i = 0; i < nr.size(); ++i) {
    spec.attrs.push_back(
        data::AttributeSpec{nr[i], static_cast<size_t>(dr[i])});
  }
  spec.with_target = args.GetBool("target", false);
  spec.one_hot = args.GetBool("one_hot", false);
  spec.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  auto rel = data::GenerateSynthetic(spec, &pool);
  if (!rel.ok()) return FailStatus(rel.status());
  // Rename to the canonical s.fml / rI.fml layout expected by LoadRelations.
  std::rename((dir + "/cli_s.fml").c_str(), (dir + "/s.fml").c_str());
  for (size_t i = 1; i <= nr.size(); ++i) {
    std::rename((dir + "/cli_r" + std::to_string(i) + ".fml").c_str(),
                (dir + "/r" + std::to_string(i) + ".fml").c_str());
  }
  std::printf("generated %lld fact rows, %zu attribute table(s) under %s\n",
              static_cast<long long>(spec.s_rows), spec.attrs.size(),
              dir.c_str());
  return 0;
}

int CmdImport(const ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  const std::string s_csv = args.GetString("s_csv", "");
  const std::string r_csvs = args.GetString("r_csv", "");
  if (dir.empty() || s_csv.empty() || r_csvs.empty()) {
    return Fail("import requires --dir, --s_csv and --r_csv");
  }
  std::vector<std::string> r_list;
  std::string cur;
  for (const char c : r_csvs + ",") {
    if (c == ',') {
      if (!cur.empty()) r_list.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  data::CsvImportOptions s_opt;
  s_opt.num_keys = 1 + r_list.size();  // SID + one FK per attribute table
  s_opt.skip_bad_rows = args.GetBool("skip_bad_rows", false);
  auto s = data::ImportCsv(s_csv, dir + "/s.fml", s_opt);
  if (!s.ok()) return FailStatus(s.status());
  data::CsvImportOptions r_opt;
  r_opt.num_keys = 1;
  r_opt.skip_bad_rows = s_opt.skip_bad_rows;
  for (size_t i = 0; i < r_list.size(); ++i) {
    auto r = data::ImportCsv(r_list[i],
                             dir + "/r" + std::to_string(i + 1) + ".fml",
                             r_opt);
    if (!r.ok()) return FailStatus(r.status());
  }
  std::printf("imported %lld fact rows and %zu attribute table(s)\n",
              static_cast<long long>(s->num_rows()), r_list.size());
  return 0;
}

int CmdStats(const ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  if (dir.empty()) return Fail("stats requires --dir");
  storage::BufferPool pool(4096);
  auto rel = LoadRelations(dir, args.GetBool("target", false), &pool);
  if (!rel.ok()) return FailStatus(rel.status());
  auto stats = core::ComputeJoinedFeatureStats(rel.value(), &pool);
  if (!stats.ok()) return FailStatus(stats.status());
  std::printf("joined feature statistics (d=%zu), computed factorized:\n",
              stats->dims());
  std::printf("%6s %14s %14s\n", "col", "mean", "stddev");
  for (size_t j = 0; j < stats->dims(); ++j) {
    std::printf("%6zu %14.6f %14.6f\n", j, stats->mean[j],
                stats->stddev[j]);
  }
  return 0;
}

/// The shared body of every train-* command: loads the relations under
/// --dir, reads the runtime flags into `opt` (the family's own --batch
/// default stays the default), and trains once per --algo strategy on a
/// cleared pool, printing each TrainReport.
template <typename Options, typename Train>
int RunTrainCommand(const ArgParser& args, const char* name, bool has_target,
                    Options opt, Train train) {
  const std::string dir = args.GetString("dir", "");
  if (dir.empty()) return Fail(std::string(name) + " requires --dir");
  auto algos = ParseAlgos(args.GetString("algo", "all"));
  if (!algos.ok()) return FailUsage(algos.status());
  storage::BufferPool pool(
      static_cast<size_t>(args.GetBufferPages(8192)));
  auto rel = LoadRelations(dir, has_target, &pool);
  if (!rel.ok()) return FailStatus(rel.status());
  static_cast<core::RuntimeOptions&>(opt) =
      core::RuntimeOptionsFromFlags(args, opt.batch_rows);
  for (const auto algo : algos.value()) {
    pool.Clear();
    core::TrainReport report;
    auto trained = train(rel.value(), opt, algo, &pool, &report);
    if (!trained.ok()) return FailStatus(trained.status());
    std::printf("%s\n", report.ToString().c_str());
  }
  return 0;
}

int CmdTrainGmm(const ArgParser& args) {
  gmm::GmmOptions opt;
  opt.num_components = static_cast<size_t>(args.GetInt("k", 5));
  opt.max_iters = static_cast<int>(args.GetInt("iters", 10));
  opt.tol = args.GetDouble("tol", 0.0);
  return RunTrainCommand(args, "train-gmm", args.GetBool("target", false),
                         opt, core::TrainGmm);
}

int CmdTrainNn(const ArgParser& args) {
  nn::NnOptions opt;
  opt.hidden = {static_cast<size_t>(args.GetInt("nh", 50))};
  opt.epochs = static_cast<int>(args.GetInt("epochs", 10));
  opt.learning_rate = args.GetDouble("lr", 0.05);
  opt.shuffle = args.GetBool("shuffle", false);
  opt.hidden_dropout = args.GetDouble("dropout", 0.0);
  opt.momentum = args.GetDouble("momentum", 0.0);
  opt.weight_decay = args.GetDouble("weight_decay", 0.0);
  const std::string act = args.GetString("act", "sigmoid");
  if (act == "tanh") opt.activation = nn::Activation::kTanh;
  else if (act == "relu") opt.activation = nn::Activation::kRelu;
  else if (act == "identity") opt.activation = nn::Activation::kIdentity;
  else if (act != "sigmoid") {
    return Fail("unknown --act '" + act +
                "' (valid: sigmoid, tanh, relu, identity)");
  }
  return RunTrainCommand(args, "train-nn", /*has_target=*/true, opt,
                         core::TrainNn);
}

int CmdTrainLinreg(const ArgParser& args) {
  linreg::LinregOptions opt;
  opt.l2 = args.GetDouble("l2", 1e-3);
  opt.intercept = !args.GetBool("no_intercept", false);
  return RunTrainCommand(args, "train-linreg", /*has_target=*/true, opt,
                         core::TrainLinreg);
}

int CmdTrainKmeans(const ArgParser& args) {
  kmeans::KmeansOptions opt;
  opt.num_clusters = static_cast<size_t>(args.GetInt("k", 5));
  opt.max_iters = static_cast<int>(args.GetInt("iters", 10));
  opt.tol = args.GetDouble("tol", 0.0);
  return RunTrainCommand(args, "train-kmeans", args.GetBool("target", false),
                         opt, core::TrainKmeans);
}

int CmdTrainLogreg(const ArgParser& args) {
  logreg::LogregOptions opt;
  opt.l2 = args.GetDouble("l2", 1e-3);
  opt.intercept = !args.GetBool("no_intercept", false);
  opt.max_iters = static_cast<int>(args.GetInt("iters", 4));
  opt.tol = args.GetDouble("tol", 0.0);
  return RunTrainCommand(args, "train-logreg", /*has_target=*/true, opt,
                         core::TrainLogreg);
}

/// Unified entry point: `train --model=<family>` dispatches to the family
/// trainer; unknown families list the valid choices.
int CmdTrain(const ArgParser& args) {
  const std::string model = args.GetString("model", "");
  if (model == "gmm") return CmdTrainGmm(args);
  if (model == "nn") return CmdTrainNn(args);
  if (model == "linreg") return CmdTrainLinreg(args);
  if (model == "kmeans") return CmdTrainKmeans(args);
  if (model == "logreg") return CmdTrainLogreg(args);
  return Fail("unknown --model '" + model +
              "' (valid: gmm, nn, linreg, kmeans, logreg)");
}

int CmdExport(const ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  const std::string out = args.GetString("out", "");
  if (dir.empty() || out.empty()) return Fail("export requires --dir, --out");
  const std::string which = args.GetString("table", "s");
  const std::string path = dir + "/" + which + ".fml";
  auto t = storage::Table::Open(path);
  if (!t.ok()) return FailStatus(t.status());
  storage::BufferPool pool(1024);
  const Status st = data::ExportCsv(t.value(), &pool, out);
  if (!st.ok()) return FailStatus(st);
  std::printf("exported %lld rows to %s\n",
              static_cast<long long>(t->num_rows()), out.c_str());
  return 0;
}

int Dispatch(const std::string& cmd, const ArgParser& args,
             const char* usage) {
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "import") return CmdImport(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "train") return CmdTrain(args);
  if (cmd == "train-gmm") return CmdTrainGmm(args);
  if (cmd == "train-nn") return CmdTrainNn(args);
  if (cmd == "train-linreg") return CmdTrainLinreg(args);
  if (cmd == "train-kmeans") return CmdTrainKmeans(args);
  if (cmd == "train-logreg") return CmdTrainLogreg(args);
  if (cmd == "export") return CmdExport(args);
  std::fprintf(stderr, "%s", usage);
  return Fail("unknown command: " + cmd);
}

int Main(int argc, char** argv) {
  static constexpr const char kUsage[] =
      "usage: factorml_cli "
      "<generate|import|stats|train|train-gmm|train-nn|train-linreg|"
      "train-kmeans|train-logreg|export> [--flags]\n";
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 1;
  }
  const std::string cmd = argv[1];
  ArgParser args(argc, argv);
  if (args.Has("io_delay_us")) {
    const auto us = static_cast<uint64_t>(args.GetInt("io_delay_us", 0));
    storage::SetSimulatedIoLatencyMicros(us, us);
  }
  exec::SetDefaultThreads(args.GetThreads(1));
  // --trace=PATH: span tracing around the whole subcommand. The flush
  // happens after the dispatch returns (pool idle), writing the Chrome
  // trace-event JSON with the run manifest embedded as otherData plus the
  // sibling <PATH>.manifest.json artifact.
  const std::string trace_path = args.GetTracePath();
  if (!trace_path.empty()) {
    obs::Tracer::Instance().Start(
        static_cast<size_t>(args.GetTraceBufferKb()));
  }
  const int rc = Dispatch(cmd, args, kUsage);
  if (!trace_path.empty()) {
    obs::Tracer::Instance().Stop();
    // NN's --batch default is its own mini-batch size.
    const bool nn = cmd == "train-nn" ||
                    (cmd == "train" && args.GetString("model", "") == "nn");
    const obs::RunManifest manifest = obs::RunManifest::FromArgs(
        "factorml_cli " + cmd, args,
        nn ? nn::NnOptions().batch_rows : core::RuntimeOptions().batch_rows);
    Status st = obs::Tracer::Instance().WriteJson(trace_path,
                                                  manifest.ToJson());
    if (st.ok()) st = manifest.WriteTo(trace_path + ".manifest.json");
    if (!st.ok()) {
      std::fprintf(stderr, "trace flush failed: %s\n",
                   st.ToString().c_str());
      return rc == 0 ? 1 : rc;
    }
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(
                    obs::Tracer::Instance().TotalEvents()),
                static_cast<unsigned long long>(
                    obs::Tracer::Instance().TotalDropped()));
  }
  return rc;
}

}  // namespace
}  // namespace factorml

int main(int argc, char** argv) { return factorml::Main(argc, argv); }
