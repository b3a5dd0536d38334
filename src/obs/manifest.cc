#include "obs/manifest.h"

#include <cstdio>
#include <sstream>

#include "common/json.h"
#include "la/kernels.h"

namespace factorml::obs {

const char* GitDescribe() {
#ifdef FACTORML_GIT_DESCRIBE
  return FACTORML_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

RunManifest RunManifest::FromArgs(const std::string& binary,
                                  const ArgParser& args,
                                  size_t default_batch_rows) {
  RunManifest m;
  m.binary = binary;
  m.git_describe = GitDescribe();
  m.runtime = core::RuntimeOptionsFromFlags(args, default_batch_rows);
  m.kernel_backend = m.runtime.kernels == la::KernelMode::kSimd
                         ? la::SimdBackendName()
                         : "scalar";
  m.cpu_features = la::CpuFeatures();
  m.buffer_pages = args.GetBufferPages(8192);
  m.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  m.trace_path = args.GetTracePath();
  m.trace_buffer_kb = args.GetTraceBufferKb();
  return m;
}

std::string RunManifest::ToJson() const {
  const core::RuntimeOptions& o = runtime;
  std::ostringstream os;
  const char* sep = "{";
  const auto num = [&](const char* key, auto value) {
    os << sep << "\"" << key << "\": " << value;
    sep = ", ";
  };
  const auto text = [&](const char* key, const std::string& value) {
    os << sep << "\"" << key << "\": \"" << JsonEscape(value) << "\"";
    sep = ", ";
  };
  const auto flag = [&](const char* key, bool value) {
    num(key, value ? "true" : "false");
  };
  text("binary", binary);
  text("git_describe", git_describe);
  num("batch_rows", o.batch_rows);
  text("temp_dir", o.temp_dir);
  num("threads", o.threads);
  num("morsel_rows", o.morsel_rows);
  flag("steal", o.steal);
  flag("prefetch", o.prefetch);
  num("prefetch_depth", o.prefetch_depth);
  num("shards", o.shards);
  text("kernels", la::KernelModeName(o.kernels));
  text("shard_backend", o.shard_backend);
  num("shard_timeout_ms", o.shard_timeout_ms);
  text("shard_transport", o.shard_transport);
  text("shard_worker_path", o.shard_worker_path);
  text("delta_encoding", o.delta_encoding);
  text("checkpoint_dir", o.checkpoint_dir);
  num("checkpoint_every", o.checkpoint_every);
  text("kernel_backend", kernel_backend);
  text("cpu_features", cpu_features);
  num("buffer_pages", buffer_pages);
  num("seed", seed);
  text("schema", schema);
  text("trace", trace_path);
  num("trace_buffer_kb", trace_buffer_kb);
  os << "}";
  return os.str();
}

Status RunManifest::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot write manifest file " + path);
  }
  const std::string json = ToJson();
  std::fprintf(f, "%s\n", json.c_str());
  if (std::fclose(f) != 0) {
    return Status::IoError("short write to manifest file " + path);
  }
  return Status::OK();
}

}  // namespace factorml::obs
