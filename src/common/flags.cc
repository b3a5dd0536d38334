#include "common/flags.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace factorml {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_[arg] = "true";  // bare flag, e.g. --verbose
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool ArgParser::Has(const std::string& key) const {
  return kv_.count(key) > 0;
}

int64_t ArgParser::GetInt(const std::string& key, int64_t default_value) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "invalid --%s=%s (must be an integer)\n", key.c_str(),
                 it->second.c_str());
    std::exit(2);
  }
  return static_cast<int64_t>(value);
}

double ArgParser::GetDouble(const std::string& key,
                            double default_value) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  // Only the syntax is checked here: "nan", "inf" and out-of-range values
  // parse, and each caller's option validation decides whether they fit.
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "invalid --%s=%s (must be a number)\n", key.c_str(),
                 it->second.c_str());
    std::exit(2);
  }
  return value;
}

bool ArgParser::GetBool(const std::string& key, bool default_value) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string ArgParser::GetString(const std::string& key,
                                 const std::string& default_value) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  return it->second;
}

std::vector<int64_t> ArgParser::GetIntList(
    const std::string& key, const std::vector<int64_t>& default_value) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  std::vector<int64_t> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(item.c_str(), &end, 10);
    if (errno == ERANGE || end == item.c_str() || *end != '\0') {
      std::fprintf(stderr,
                   "invalid --%s=%s (must be a comma-separated list of "
                   "integers; '%s' is not an integer)\n",
                   key.c_str(), it->second.c_str(), item.c_str());
      std::exit(2);
    }
    out.push_back(static_cast<int64_t>(value));
  }
  return out;
}

int ArgParser::GetThreads(int default_value) const {
  auto it = kv_.find("threads");
  if (it == kv_.end()) return default_value < 1 ? 1 : default_value;
  errno = 0;
  char* end = nullptr;
  const long long threads = std::strtoll(it->second.c_str(), &end, 10);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0' ||
      threads < 1 || threads > INT_MAX) {
    std::fprintf(stderr,
                 "invalid --threads=%s (must be an integer >= 1; 1 = the "
                 "exact serial reproduction)\n",
                 it->second.c_str());
    std::exit(2);
  }
  return static_cast<int>(threads);
}

int64_t ArgParser::GetMorselRows(int64_t default_value) const {
  auto it = kv_.find("morsel-rows");
  if (it == kv_.end()) return default_value < 0 ? 0 : default_value;
  errno = 0;
  char* end = nullptr;
  const long long rows = std::strtoll(it->second.c_str(), &end, 10);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0' ||
      rows < 0) {
    std::fprintf(stderr,
                 "invalid --morsel-rows=%s (must be an integer >= 0; 0 = "
                 "static per-worker morsels, N > 0 = chunk-ordered "
                 "scheduler with N-row chunks)\n",
                 it->second.c_str());
    std::exit(2);
  }
  return static_cast<int64_t>(rows);
}

bool ArgParser::GetSteal(bool default_value) const {
  auto it = kv_.find("steal");
  if (it == kv_.end()) return default_value;
  if (it->second == "on") return true;
  if (it->second == "off") return false;
  std::fprintf(stderr,
               "invalid --steal=%s (must be 'on' or 'off'; on = idle "
               "workers take chunks from busy ones, bit-identical results "
               "either way)\n",
               it->second.c_str());
  std::exit(2);
}

int ArgParser::GetShards(int default_value) const {
  auto it = kv_.find("shards");
  if (it == kv_.end()) return default_value < 1 ? 1 : default_value;
  errno = 0;
  char* end = nullptr;
  const long long shards = std::strtoll(it->second.c_str(), &end, 10);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0' ||
      shards < 1 || shards > INT_MAX) {
    std::fprintf(stderr,
                 "invalid --shards=%s (must be an integer >= 1; 1 = "
                 "unsharded, N > 1 = rid-range shards with bit-identical "
                 "results at the same --morsel-rows)\n",
                 it->second.c_str());
    std::exit(2);
  }
  return static_cast<int>(shards);
}

bool ArgParser::GetPrefetch(bool default_value) const {
  auto it = kv_.find("prefetch");
  if (it == kv_.end()) return default_value;
  if (it->second == "on") return true;
  if (it->second == "off") return false;
  std::fprintf(stderr,
               "invalid --prefetch=%s (must be 'on' or 'off'; on = overlap "
               "the next morsel's page reads with compute, bit-identical "
               "results either way)\n",
               it->second.c_str());
  std::exit(2);
}

int ArgParser::GetPrefetchDepth(int default_value) const {
  auto it = kv_.find("prefetch-depth");
  if (it == kv_.end()) return default_value < 1 ? 1 : default_value;
  errno = 0;
  char* end = nullptr;
  const long long depth = std::strtoll(it->second.c_str(), &end, 10);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0' ||
      depth < 1 || depth > INT_MAX) {
    std::fprintf(stderr,
                 "invalid --prefetch-depth=%s (must be an integer >= 1: "
                 "batches read ahead per worker; 2 = double buffering)\n",
                 it->second.c_str());
    std::exit(2);
  }
  return static_cast<int>(depth);
}

std::string ArgParser::GetKernels(const std::string& default_value) const {
  auto it = kv_.find("kernels");
  if (it == kv_.end()) return default_value;
  if (it->second == "scalar" || it->second == "simd") return it->second;
  std::fprintf(stderr,
               "invalid --kernels=%s (must be 'scalar' or 'simd'; scalar = "
               "bit-identical seed kernels, simd = runtime-dispatched "
               "vector kernels + batched strip decode, same op counts and "
               "page I/O to floating-point reassociation tolerance)\n",
               it->second.c_str());
  std::exit(2);
}

int64_t ArgParser::GetBufferPages(int64_t default_value) const {
  auto it = kv_.find("buffer-pages");
  if (it == kv_.end()) return default_value < 1 ? 1 : default_value;
  errno = 0;
  char* end = nullptr;
  const long long pages = std::strtoll(it->second.c_str(), &end, 10);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0' ||
      pages < 1) {
    std::fprintf(stderr,
                 "invalid --buffer-pages=%s (must be an integer >= 1: "
                 "buffer-pool capacity in 8 KiB pages)\n",
                 it->second.c_str());
    std::exit(2);
  }
  return static_cast<int64_t>(pages);
}

std::string ArgParser::GetTracePath(const std::string& default_value) const {
  auto it = kv_.find("trace");
  if (it == kv_.end()) return default_value;
  const std::string& path = it->second;
  // Probe writability now (append mode: an existing file is not
  // truncated by the probe; the flush at run end rewrites it).
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (path.empty() || f == nullptr) {
    std::fprintf(stderr,
                 "invalid --trace=%s (must be a writable file path for the "
                 "Chrome trace-event JSON output)\n",
                 path.c_str());
    std::exit(2);
  }
  std::fclose(f);
  return path;
}

std::string ArgParser::GetShardBackend(const std::string& default_value) const {
  auto it = kv_.find("shard-backend");
  if (it == kv_.end()) return default_value;
  if (it->second == "inproc" || it->second == "process") return it->second;
  std::fprintf(stderr,
               "invalid --shard-backend=%s (must be 'inproc' or 'process'; "
               "inproc = the in-process shard driver, byte-identical to the "
               "seed; process = one factormld worker per shard over "
               "length-prefixed socket frames, bit-identical results)\n",
               it->second.c_str());
  std::exit(2);
}

int64_t ArgParser::GetShardTimeoutMs(int64_t default_value) const {
  auto it = kv_.find("shard-timeout-ms");
  if (it == kv_.end()) return default_value < 1 ? 1 : default_value;
  errno = 0;
  char* end = nullptr;
  const long long ms = std::strtoll(it->second.c_str(), &end, 10);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0' || ms < 1) {
    std::fprintf(stderr,
                 "invalid --shard-timeout-ms=%s (must be an integer >= 1: "
                 "per-worker deadline before a shard worker is declared dead "
                 "and its spans are requeued)\n",
                 it->second.c_str());
    std::exit(2);
  }
  return static_cast<int64_t>(ms);
}

std::string ArgParser::GetShardTransport(
    const std::string& default_value) const {
  auto it = kv_.find("shard-transport");
  if (it == kv_.end()) return default_value;
  if (it->second == "unix" || it->second == "tcp") return it->second;
  std::fprintf(stderr,
               "invalid --shard-transport=%s (must be 'unix' or 'tcp'; unix = "
               "a Unix-domain socket in the temp dir, tcp = 127.0.0.1 with a "
               "kernel-assigned port; same wire format either way)\n",
               it->second.c_str());
  std::exit(2);
}

std::string ArgParser::GetDeltaEncoding(
    const std::string& default_value) const {
  auto it = kv_.find("delta-encoding");
  if (it == kv_.end()) return default_value;
  if (it->second == "dense" || it->second == "sparse") return it->second;
  std::fprintf(stderr,
               "invalid --delta-encoding=%s (must be 'dense' or 'sparse'; "
               "dense = v1 frames shipping every slot double, sparse = v2 "
               "zero-run-length frames, decoded bit-identically so results "
               "match dense exactly)\n",
               it->second.c_str());
  std::exit(2);
}

std::string ArgParser::GetCheckpointDir(
    const std::string& default_value) const {
  auto it = kv_.find("checkpoint-dir");
  if (it == kv_.end()) return default_value;
  const std::string& dir = it->second;
  // Probe writability now (like --trace): create-then-remove a probe file
  // so an unwritable directory fails before the run burns wall time.
  const std::string probe = dir + "/.ckpt-probe";
  std::FILE* f = dir.empty() ? nullptr : std::fopen(probe.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "invalid --checkpoint-dir=%s (must be an existing writable "
                 "directory for the CRC-verified training checkpoints)\n",
                 dir.c_str());
    std::exit(2);
  }
  std::fclose(f);
  std::remove(probe.c_str());
  return dir;
}

int64_t ArgParser::GetCheckpointEvery(int64_t default_value) const {
  auto it = kv_.find("checkpoint-every");
  if (it == kv_.end()) return default_value < 0 ? 0 : default_value;
  if (kv_.find("checkpoint-dir") == kv_.end()) {
    std::fprintf(stderr,
                 "invalid --checkpoint-every=%s (requires --checkpoint-dir; "
                 "the interval has nowhere to write without a checkpoint "
                 "directory)\n",
                 it->second.c_str());
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const long long every = std::strtoll(it->second.c_str(), &end, 10);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0' ||
      every < 1) {
    std::fprintf(stderr,
                 "invalid --checkpoint-every=%s (must be an integer >= 1: "
                 "completed iterations between checkpoint writes)\n",
                 it->second.c_str());
    std::exit(2);
  }
  return static_cast<int64_t>(every);
}

int64_t ArgParser::GetTraceBufferKb(int64_t default_value) const {
  auto it = kv_.find("trace-buffer-kb");
  if (it == kv_.end()) return default_value < 1 ? 1 : default_value;
  errno = 0;
  char* end = nullptr;
  const long long kb = std::strtoll(it->second.c_str(), &end, 10);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0' ||
      kb < 1) {
    std::fprintf(stderr,
                 "invalid --trace-buffer-kb=%s (must be an integer >= 1: "
                 "per-thread trace ring capacity in KiB; overflow drops "
                 "events, counted)\n",
                 it->second.c_str());
    std::exit(2);
  }
  return static_cast<int64_t>(kb);
}

}  // namespace factorml
