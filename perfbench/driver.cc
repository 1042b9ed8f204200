// Repository benchmark driver. Runs one workload and prints, as the last
// line of stdout, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Normally launched through perfbench/run.py, which builds it first:
//
//   python3 perfbench/run.py --workload hot-zipf-tcp --seed 1 --seconds 10 --trace 0
//
// Exit codes: 0 ok; 1 a wrong answer (the result line still prints, with
// "correct": false); 2 bad arguments or a refused build; 3 a metric the run
// could not support (e.g. too few samples for its percentile).

#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "dppr/obs/trace.h"

extern char** environ;

namespace perfbench {

Clock::time_point g_process_start = Clock::now();

namespace {

constexpr const char* kWorkloads[] = {"hot-zipf-tcp", "cold-uniform-disk"};

/// Every per-layer metric, in print order, with its unit. A workload that
/// does not exercise a layer leaves its figures at 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"serve.admission_wait_ms.p50", "ms"},
    {"serve.admission_wait_ms.p99", "ms"},
    {"serve.self_ms.p50", "ms"},
    {"serve.batch_mean", "count"},
    {"serve.result_cache_hit_ratio", "ratio"},
    {"serve.shed_ratio", "ratio"},
    {"serve.invalidations", "count"},
    {"core.route_us.p50", "us"},
    {"core.machines_per_query", "count"},
    {"core.round_ms.p50", "ms"},
    {"core.round_ms.p99", "ms"},
    {"core.max_machine_ms.p50", "ms"},
    {"core.coordinator_ms.p50", "ms"},
    {"core.precompute_s", "s"},
    {"core.offline_max_machine_s", "s"},
    {"core.index_adopt_s", "s"},
    {"partition.hierarchy_s", "s"},
    {"partition.hubs", "count"},
    {"ppr.fold_ns_per_entry", "ns"},
    {"ppr.entries_per_query", "count"},
    {"dist.empty_round_us.p50", "us"},
    {"dist.machine_rounds_per_query", "count"},
    {"dist.offline_rounds", "count"},
    {"dist.offline_sim_s", "s"},
    {"net.payload_round_us.p50", "us"},
    {"net.bytes_per_query", "bytes"},
    {"net.frames_per_query", "count"},
    {"net.offline_shuffled_mb", "MB"},
    {"store.hit_ratio", "ratio"},
    {"store.misses_per_query", "count"},
    {"store.disk_mb_per_query", "MB"},
    {"store.preads_per_query", "count"},
    {"store.findpair_us.p50", "us"},
    {"store.prefetch_ms.p50", "ms"},
    {"unattributed_ms.p50", "ms"},
    {"replay.e2e_ms.mean", "ms"},
    {"replay.serve.self_ms.mean", "ms"},
    {"replay.core.self_ms.mean", "ms"},
    {"replay.dist.self_ms.mean", "ms"},
    {"replay.net.self_ms.mean", "ms"},
    {"replay.store.self_ms.mean", "ms"},
    {"replay.ppr.self_ms.mean", "ms"},
    {"replay.unattributed_ms.mean", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"gen.late_ms.max", "ms"},
};

const char* kEndToEnd[] = {"p50_ms",   "qps",         "comm_kb_per_query", "build_s",
                           "space_mb", "peak_rss_mb", "setup_s"};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hot-zipf-tcp|cold-uniform-disk --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--git-sha SHA] "
               "[--source-sha SHA]\n",
               why);
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      unsigned int r[4];
      __get_cpuid(0x80000002 + leaf, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + 16 * leaf, r, sizeof(r));
    }
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

/// Clears every ambient DPPR_* variable (returned as "name=value") so no
/// outside knob can change a workload; the workloads pass every setting
/// explicitly. The few knobs read only from the environment are then pinned.
std::vector<std::string> PinEnvironment(const Args& args,
                                        std::vector<std::string>& effective) {
  std::vector<std::string> ambient;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "DPPR_", 5) == 0) ambient.emplace_back(*env);
  }
  for (const std::string& entry : ambient) {
    unsetenv(entry.substr(0, entry.find('=')).c_str());
  }
  effective.push_back("DPPR_PREFETCH=on");
  if (args.trace) {
    effective.push_back("DPPR_TRACE=" + args.work_dir + "/trace-" +
                        args.workload + ".json");
  }
  for (const std::string& entry : effective) {
    const size_t eq = entry.find('=');
    setenv(entry.substr(0, eq).c_str(), entry.substr(eq + 1).c_str(), 1);
  }
  return ambient;
}

bool BuildRefused(std::string& why) {
#ifndef NDEBUG
  why = "built without NDEBUG (configure with -DCMAKE_BUILD_TYPE=Release)";
  return true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "built with a sanitizer";
  return true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  why = "built with a sanitizer";
  return true;
#endif
#endif
  (void)why;
  return false;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  std::string git_sha = "unknown", source_sha = "unknown";
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("--seed must be an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 1.0 && args.seconds <= 60.0)) {
        Usage("--seconds must be a number in [1, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-sha") {
      source_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known |= args.workload == w;
  if (!known) Usage("unknown --workload");
  if (!have_seed || !have_trace || args.work_dir.empty()) {
    Usage("--seed, --trace and --work-dir are required");
  }
  std::string refused;
  if (BuildRefused(refused)) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", refused.c_str());
    return 2;
  }

  std::vector<std::string> effective;
  const std::vector<std::string> ambient = PinEnvironment(args, effective);
  // Tracing is only ever on inside the traced windows and the replay.
  dppr::obs::Tracer::Global().set_enabled(false);

  std::string record = "{\"workload\": " + JsonString(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + std::to_string(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"cpu_model\": " + JsonString(CpuModel()) +
                       ", \"build\": \"Release/NDEBUG, no sanitizer\"" +
                       ", \"git_sha\": " + JsonString(git_sha) +
                       ", \"source_sha\": " + JsonString(source_sha) +
                       ", \"dppr_env\": [";
  for (size_t i = 0; i < effective.size(); ++i) {
    record += (i ? ", " : "") + JsonString(effective[i]);
  }
  record += "], \"ambient_dppr_env_cleared\": [";
  for (size_t i = 0; i < ambient.size(); ++i) {
    record += (i ? ", " : "") + JsonString(ambient[i]);
  }
  record += "]}";
  std::printf("run_record %s\n", record.c_str());
  std::fflush(stdout);

  Outcome outcome;
  for (const auto& [name, unit] : kPerLayer) outcome.per_layer.Set(name, 0.0, unit);
  if (args.workload == "hot-zipf-tcp") {
    RunHotZipfTcp(args, outcome);
  } else {
    RunColdUniformDisk(args, outcome);
  }

  for (const std::string& note : outcome.notes) std::printf("note %s\n", note.c_str());
  std::printf("end-to-end metrics:\n%s", outcome.end_to_end.ToText().c_str());
  if (args.trace) {
    std::printf("per-layer metrics:\n%s", outcome.per_layer.ToText().c_str());
  }
  const uint64_t failed = outcome.shed + outcome.errors + outcome.wrong;
  std::printf("failed_ratio %.6g (shed %llu, errors %llu, wrong %llu of %llu attempted)\n",
              outcome.attempted > 0
                  ? static_cast<double>(failed) / static_cast<double>(outcome.attempted)
                  : 0.0,
              static_cast<unsigned long long>(outcome.shed),
              static_cast<unsigned long long>(outcome.errors),
              static_cast<unsigned long long>(outcome.wrong),
              static_cast<unsigned long long>(outcome.attempted));

  int status = outcome.wrong > 0 ? 1 : 0;
  if (status == 0 && !args.trace) {
    for (const char* name : kEndToEnd) {
      if (outcome.end_to_end.Get(name) == -1.0) {
        std::fprintf(stderr, "perfbench: %s has too few samples to report\n", name);
        status = 3;
      }
    }
  }
  const MetricTable& printed = args.trace ? outcome.per_layer : outcome.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              outcome.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(failed), printed.ToJson().c_str());
  std::fflush(stdout);
  return status;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
