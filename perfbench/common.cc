#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "dppr/core/precompute.h"
#include "dppr/graph/datasets.h"
#include "dppr/ppr/metrics.h"
#include "dppr/ppr/power_iteration.h"

namespace perfbench {

using namespace dppr;

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit, size_t samples) {
  for (auto& [key, entry] : entries_) {
    if (key == name) {
      entry = Entry{value, unit, samples};
      return;
    }
  }
  entries_.emplace_back(name, Entry{value, unit, samples});
}

void MetricTable::SetPercentile(const std::string& name,
                                const std::vector<double>& samples, double q,
                                const std::string& unit) {
  std::optional<double> value = Percentile(samples, q);
  Set(name, value.value_or(-1.0), unit, samples.size());
}

double MetricTable::Get(const std::string& name) const {
  for (const auto& [key, entry] : entries_) {
    if (key == name) return entry.value;
  }
  DPPR_CHECK(false && "metric not set");
  return 0.0;
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "-1";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string MetricTable::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const auto& [name, entry] = entries_[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Number(entry.value) +
           ", \"unit\": \"" + entry.unit + "\"}";
  }
  return out + "}";
}

std::string MetricTable::ToText() const {
  std::string out;
  for (const auto& [name, entry] : entries_) {
    char line[256];
    if (entry.samples > 0) {
      std::snprintf(line, sizeof(line), "  %-34s %14.6g %-6s n=%zu%s\n",
                    name.c_str(), entry.value, entry.unit.c_str(),
                    entry.samples,
                    entry.value == -1.0 ? " (fewer than ten beyond: unreported)"
                                        : "");
    } else {
      std::snprintf(line, sizeof(line), "  %-34s %14.6g %s\n", name.c_str(),
                    entry.value, entry.unit.c_str());
    }
    out += line;
  }
  return out;
}

std::unique_ptr<Graph> LoadWeb() {
  return std::make_unique<Graph>(DatasetByName("web", kWebScale));
}

std::pair<HgpaIndex, BuildReport> BuildIndex(const Graph& graph,
                                             const StorageOptions& storage,
                                             const ReplicationOptions& replication) {
  BuildReport report;
  const HgpaOptions options;
  const Clock::time_point start = Clock::now();

  Clock::time_point phase = Clock::now();
  Hierarchy hierarchy = Hierarchy::Build(graph, options.hierarchy);
  report.hierarchy_s = SecondsSince(phase);
  for (size_t s = 0; s < hierarchy.num_subgraphs(); ++s) {
    report.hubs += hierarchy.subgraph(static_cast<SubgraphId>(s)).hubs.size();
  }

  DistPrecomputeOptions dist;
  dist.num_machines = kMachines;
  dist.network = NetworkModel{};
  dist.sequential = false;
  dist.storage = storage;
  dist.transport = TransportOptions{TransportBackend::kInProcess};
  dist.locality = OfflinePlacement::kLocality;
  phase = Clock::now();
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(graph, std::move(hierarchy), options, dist);
  report.precompute_s = SecondsSince(phase);
  report.offline_rounds = result.offline.rounds;
  report.offline_sim_s = result.offline.simulated_seconds;
  report.offline_max_machine_s = result.offline.max_machine_seconds;
  report.shuffled_bytes = result.offline.shuffled.bytes;

  phase = Clock::now();
  HgpaIndex index = HgpaIndex::FromDistributed(std::move(result), replication);
  report.adopt_s = SecondsSince(phase);
  report.build_s = SecondsSince(start);
  report.max_machine_bytes = index.MaxMachineBytes();
  return {std::move(index), report};
}

std::vector<HgpaQueryEngine::Preference> Preferences(const Request& request) {
  std::vector<HgpaQueryEngine::Preference> prefs;
  if (request.kind == RequestKind::kPreferenceSet) {
    for (size_t i = 0; i < request.sources.size(); ++i) {
      prefs.push_back({request.sources[i], kPreferenceWeights[i]});
    }
  } else {
    prefs.push_back({request.sources[0], 1.0});
  }
  return prefs;
}

uint64_t AnswerHash(const Request& request, const SparseVector& answer) {
  if (request.kind == RequestKind::kTopK) return HashTopK(TopK(answer, kTopK));
  return HashVector(answer);
}

Oracle::Oracle(const Graph& graph, const Hierarchy& hierarchy) : graph_(graph) {
  auto pre = HgpaPrecomputation::Run(graph, Hierarchy(hierarchy), HgpaOptions{});
  engine_ = std::make_unique<HgpaQueryEngine>(
      HgpaIndex::Distribute(pre, kMachines,
                            StoreOptions(StorageBackend::kMemoryRef),
                            ReplicationOptions{}),
      NetworkModel{}, TransportOptions{TransportBackend::kInProcess},
      RoutingOptions{RoutingMode::kBroadcast});
}

uint64_t Oracle::ExpectedHash(const Request& request) {
  auto key = std::make_pair(request.kind, request.sources);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  const auto prefs = Preferences(request);
  const uint64_t hash =
      AnswerHash(request, engine_->QueryPreferenceSet(prefs));
  memo_.emplace(std::move(key), hash);
  return hash;
}

size_t Oracle::CheckPowerIteration(std::vector<std::string>& notes) const {
  // Fixed sample (independent of --seed): four sources spread over the id
  // range. Thresholds are the paper-tolerance bounds the repository's
  // integration test holds HGPA to.
  PowerIterationOptions pi;
  pi.dangling = PowerDangling::kAbsorb;
  pi.ppr.tolerance = 1e-4;
  const size_t n = graph_.num_nodes();
  size_t failures = 0;
  for (NodeId q : {NodeId{0}, static_cast<NodeId>(n / 3),
                   static_cast<NodeId>(2 * n / 3), static_cast<NodeId>(n - 1)}) {
    std::vector<double> hgpa = engine_->QueryDense(q);
    std::vector<double> power = PowerIterationPpv(graph_, q, pi).ppv;
    const double linf = LInfNorm(hgpa, power);
    const double l1 = AverageL1(hgpa, power);
    const bool ok = linf < 3e-3 && l1 < 1e-4;
    if (!ok) ++failures;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "power-iteration check source %u: linf %.3g avg_l1 %.3g %s",
                  q, linf, l1, ok ? "ok" : "FAILED");
    notes.push_back(line);
  }
  return failures;
}

uint64_t VerifyAnswers(Oracle& oracle, std::span<const Request* const> requests,
                       std::span<const uint64_t> observed,
                       std::vector<std::string>& notes) {
  std::vector<uint64_t> expected(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    expected[i] = oracle.ExpectedHash(*requests[i]);
  }
  std::vector<size_t> mismatches = GateMismatches(observed, expected);
  for (size_t i = 0; i < std::min<size_t>(mismatches.size(), 5); ++i) {
    const Request& r = *requests[mismatches[i]];
    char line[160];
    std::snprintf(line, sizeof(line),
                  "WRONG ANSWER: request %zu kind %d source %u hash %016" PRIx64
                  " expected %016" PRIx64,
                  mismatches[i], static_cast<int>(r.kind), r.sources[0],
                  observed[mismatches[i]], expected[mismatches[i]]);
    notes.push_back(line);
  }
  char line[96];
  std::snprintf(line, sizeof(line), "correctness gate: %zu answers, %zu wrong",
                requests.size(), mismatches.size());
  notes.push_back(line);
  return mismatches.size();
}

std::vector<size_t> BatchSizes(const obs::Histogram::Snapshot& batches,
                               size_t count) {
  std::vector<size_t> sizes;
  for (size_t i = 0; i < count; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
    sizes.push_back(std::max<uint64_t>(1, batches.total > 0 ? batches.Quantile(q) : 1));
  }
  return sizes;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

}  // namespace perfbench
