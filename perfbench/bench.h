// Shared pieces of the benchmark driver: arguments, the metric table a run
// prints, the production-path index build, the correctness oracle, and the
// per-layer replay. See perfbench/README.md for the workloads and metrics.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dppr/core/hgpa.h"
#include "dppr/graph/graph.h"
#include "dppr/obs/metrics.h"
#include "logic.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fixed shape of every workload: the `web` dataset at full scale on six
/// simulated machines, paper-default HGPA options.
inline constexpr double kWebScale = 1.0;
inline constexpr size_t kMachines = 6;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (spill files, trace output).
  std::string work_dir;
};

/// Ordered metric table: name -> (value, unit, sample count; 0 = not a
/// sampled statistic).
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// Percentile of `samples` under the ten-beyond rule; an unreportable
  /// percentile is recorded as -1 (never a measured value).
  void SetPercentile(const std::string& name, const std::vector<double>& samples,
                     double q, const std::string& unit);
  double Get(const std::string& name) const;
  std::string ToJson() const;
  /// One human-readable line per metric, with the sample count.
  std::string ToText() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    size_t samples;
  };
  std::vector<std::pair<std::string, Entry>> entries_;
};

/// What one workload run reports back to main().
struct Outcome {
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  MetricTable end_to_end;
  MetricTable per_layer;
  /// Free-form notes printed before the result line (correctness detail).
  std::vector<std::string> notes;
};

/// Each workload fills `outcome` (whose per_layer table arrives pre-filled
/// with every per-layer name, so a layer a workload does not exercise
/// reports 0).
void RunHotZipfTcp(const Args& args, Outcome& outcome);
void RunColdUniformDisk(const Args& args, Outcome& outcome);

// ---------------------------------------------------------------------------
// Production-path index build.
// ---------------------------------------------------------------------------

struct BuildReport {
  double hierarchy_s = 0.0;
  double precompute_s = 0.0;
  double adopt_s = 0.0;
  double build_s = 0.0;
  size_t hubs = 0;
  size_t offline_rounds = 0;
  double offline_sim_s = 0.0;
  double offline_max_machine_s = 0.0;
  uint64_t shuffled_bytes = 0;
  size_t max_machine_bytes = 0;
};

/// Hierarchy::Build -> DistributedPrecompute::Run (locality shuffle, inproc)
/// -> HgpaIndex::FromDistributed, with every setting pinned. `graph` must
/// outlive the index.
std::pair<dppr::HgpaIndex, BuildReport> BuildIndex(
    const dppr::Graph& graph, const dppr::StorageOptions& storage,
    const dppr::ReplicationOptions& replication);

std::unique_ptr<dppr::Graph> LoadWeb();

/// Store settings for `backend`, every other field at its default.
inline dppr::StorageOptions StoreOptions(dppr::StorageBackend backend) {
  dppr::StorageOptions options;
  options.backend = backend;
  return options;
}

// ---------------------------------------------------------------------------
// Correctness oracle.
// ---------------------------------------------------------------------------

/// Centralized reference: HgpaPrecomputation over the served index's
/// hierarchy -> HgpaIndex::Distribute onto memory stores, broadcast over the
/// in-process transport, queried unbatched from one thread. Built only after
/// the measured phase.
class Oracle {
 public:
  Oracle(const dppr::Graph& graph, const dppr::Hierarchy& hierarchy);
  /// Hash of the answer `request` must produce (memoized per request).
  uint64_t ExpectedHash(const Request& request);
  /// Power-iteration check of the oracle itself on a fixed source sample at
  /// the paper tolerance; appends a note per source, returns failures.
  size_t CheckPowerIteration(std::vector<std::string>& notes) const;

 private:
  const dppr::Graph& graph_;
  std::unique_ptr<dppr::HgpaQueryEngine> engine_;
  std::map<std::pair<RequestKind, std::vector<NodeId>>, uint64_t> memo_;
};

/// Hash of a served answer for `request` (QueryServer / engine results).
uint64_t AnswerHash(const Request& request, const dppr::SparseVector& answer);
std::vector<dppr::HgpaQueryEngine::Preference> Preferences(
    const Request& request);

/// Compares each observed hash with the oracle's; returns the wrong count and
/// notes the first few mismatches.
uint64_t VerifyAnswers(Oracle& oracle, std::span<const Request* const> requests,
                       std::span<const uint64_t> observed,
                       std::vector<std::string>& notes);

// ---------------------------------------------------------------------------
// Per-layer replay (traced run).
// ---------------------------------------------------------------------------

/// One read to split by layer: its request, its end-to-end latency from the
/// traced window, and whether the result cache answered it.
struct ReplaySample {
  const Request* request = nullptr;
  double latency_ms = 0.0;
  bool cache_hit = false;
};

/// Replays `samples` against the public entry points of core, dist, net,
/// store and ppr on `engine`'s index and fills the per-layer self times,
/// their means (which add up to the mean end-to-end latency exactly) and
/// unattributed_ms. `batch_sizes` are the realized admission batch sizes the
/// rounds are replayed at (one per sample, cycled).
void ReplayLayers(const dppr::HgpaQueryEngine& engine,
                  dppr::TransportBackend transport,
                  std::span<const ReplaySample> samples,
                  std::span<const size_t> batch_sizes, MetricTable& out);

/// Realized batch sizes from a batch-size histogram delta: `count` values at
/// evenly spaced quantiles.
std::vector<size_t> BatchSizes(const dppr::obs::Histogram::Snapshot& batches,
                               size_t count);

/// Process peak resident set size in MB (10^6 bytes).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
