#include "bench_util.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "dppr/common/env.h"
#include "dppr/common/macros.h"
#include "dppr/common/rng.h"

namespace dppr::bench {
namespace {

/// Rows executed this run, in execution order; drained by the --json writer.
struct ExecutedRow {
  std::string name;
  Counters counters;
};
std::mutex g_rows_mu;
std::vector<ExecutedRow> g_rows;  // guarded by g_rows_mu

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

/// The committed snapshot schema: which binary produced it, under which
/// environment knobs, and every row's counter map.
std::string RenderJson(const std::string& bench_name) {
  std::string out = "{\n  \"bench\": ";
  AppendJsonString(out, bench_name);
  out += ",\n  \"params\": {";
  out += "\"scale\": " + std::to_string(GetEnvDouble("DPPR_BENCH_SCALE", 1.0));
  out += ", \"transport\": ";
  AppendJsonString(out, GetEnvString("DPPR_TRANSPORT", "inproc"));
  out += ", \"store\": ";
  AppendJsonString(out, GetEnvString("DPPR_STORE", "memory"));
  out += "},\n  \"rows\": [";
  std::lock_guard<std::mutex> lock(g_rows_mu);
  for (size_t i = 0; i < g_rows.size(); ++i) {
    out += (i == 0) ? "\n" : ",\n";
    out += "    {\"name\": ";
    AppendJsonString(out, g_rows[i].name);
    out += ", \"metrics\": {";
    for (size_t j = 0; j < g_rows[i].counters.size(); ++j) {
      if (j > 0) out += ", ";
      AppendJsonString(out, g_rows[i].counters[j].first);
      char value[64];
      std::snprintf(value, sizeof(value), ": %.6g",
                    g_rows[i].counters[j].second);
      out += value;
    }
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace

double BenchScale(double base) {
  double multiplier = GetEnvDouble("DPPR_BENCH_SCALE", 1.0);
  return base * (multiplier > 0 ? multiplier : 1.0);
}

Graph LoadDataset(const std::string& name, double scale_base) {
  return DatasetByName(name, BenchScale(scale_base));
}

std::vector<NodeId> SampleQueries(const Graph& graph, size_t count,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> queries;
  queries.reserve(count);
  // Prefer query nodes with real out-neighborhoods: synthetic id spaces
  // contain isolated self-loop nodes whose PPV is trivially concentrated.
  for (size_t i = 0; i < count; ++i) {
    NodeId q = static_cast<NodeId>(rng.Uniform(graph.num_nodes()));
    for (int tries = 0; tries < 64; ++tries) {
      NodeId candidate = static_cast<NodeId>(rng.Uniform(graph.num_nodes()));
      if (candidate != kInvalidNode && graph.out_degree(candidate) >= 2 &&
          !graph.HasEdge(candidate, candidate)) {
        q = candidate;
        break;
      }
    }
    queries.push_back(q);
  }
  return queries;
}

QuerySummary MeasureQueries(const HgpaQueryEngine& engine,
                            std::span<const NodeId> queries) {
  QuerySummary summary;
  for (NodeId q : queries) {
    // Simulated machines share this process's cores, so a single run picks
    // up scheduler jitter; keep the best of three (comm is deterministic).
    double compute_ms = 1e18;
    double simulated_ms = 1e18;
    QueryMetrics metrics;
    for (int repeat = 0; repeat < 3; ++repeat) {
      engine.Query(q, &metrics);
      compute_ms = std::min(compute_ms, metrics.ComputeSeconds() * 1e3);
      simulated_ms = std::min(simulated_ms, metrics.simulated_seconds * 1e3);
    }
    summary.compute_ms += compute_ms;
    summary.simulated_ms += simulated_ms;
    summary.comm_kb += metrics.comm.kilobytes();
  }
  double n = static_cast<double>(queries.size());
  summary.compute_ms /= n;
  summary.simulated_ms /= n;
  summary.comm_kb /= n;
  return summary;
}

void AddRow(const std::string& name, std::function<Counters()> fn) {
  benchmark::RegisterBenchmark(
      name.c_str(), [name, fn = std::move(fn)](benchmark::State& state) {
        Counters counters;
        for (auto _ : state) {
          counters = fn();
        }
        for (const auto& [key, value] : counters) {
          state.counters[key] = value;
        }
        std::lock_guard<std::mutex> lock(g_rows_mu);
        g_rows.push_back({name, std::move(counters)});
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

int BenchMain(int argc, char** argv) {
  // Strip --json=<path> before google-benchmark parses: it is ours, and
  // Initialize would reject it as unrecognized.
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char kFlag[] = "--json=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      json_path = argv[i] + sizeof(kFlag) - 1;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!json_path.empty()) {
    // Name the snapshot after the producing binary (strip any directory).
    std::string bench_name = argv[0];
    size_t slash = bench_name.find_last_of('/');
    if (slash != std::string::npos) bench_name = bench_name.substr(slash + 1);
    std::string json = RenderJson(bench_name);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    DPPR_CHECK(f != nullptr);
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    DPPR_CHECK_EQ(written, json.size());
    DPPR_CHECK_EQ(std::fclose(f), 0);
  }
  return 0;
}

}  // namespace dppr::bench
