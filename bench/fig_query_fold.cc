// Raw-speed microbench for the query hot path, gating the fold-kernel and
// extent-prefetch work: (1) ns/entry of the bitmap fold kernels
// (DenseAccumulator::AddVector/ToSparse/Clear) against the scalar
// accumulator they replaced, which must come out >= 2x; (2) cold-query
// latency through a disk-backed index, whose machine tasks always run the
// batched extent prefetcher. Answers are bit-identity-checked in-bench for the
// fold and by prefetch_test/store_equivalence_test for the query path — this
// bench only prices the speed.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "dppr/common/macros.h"
#include "dppr/common/rng.h"
#include "dppr/common/timer.h"
#include "dppr/core/hgpa.h"
#include "dppr/ppr/sparse_vector.h"

namespace {

using namespace dppr;
using namespace dppr::bench;

// ---------------------------------------------------------------------------
// Fold kernels vs. the committed scalar baseline
// ---------------------------------------------------------------------------

/// The scalar fold the bitmap kernels replaced, kept verbatim (per-entry
/// byte-flag load + branch + touched push_back; ToSparse over the unsorted
/// touched list through FromEntries' sort): the speedup below is measured
/// against the real pre-kernel DenseAccumulator, not a strawman.
class ScalarAccumulator {
 public:
  explicit ScalarAccumulator(size_t size)
      : values_(size, 0.0), touched_flag_(size, 0) {}

  void Add(NodeId index, double value) {
    if (!touched_flag_[index]) {
      touched_flag_[index] = 1;
      touched_.push_back(index);
    }
    values_[index] += value;
  }

  void AddVector(const SparseVector& vec, double scale) {
    for (const auto& e : vec.entries()) Add(e.index, scale * e.value);
  }

  SparseVector ToSparse(double prune_below = 0.0) const {
    std::vector<SparseVector::Entry> entries;
    entries.reserve(touched_.size());
    for (NodeId i : touched_) {
      if (std::abs(values_[i]) > prune_below) entries.push_back({i, values_[i]});
    }
    return SparseVector::FromEntries(std::move(entries));
  }

  void Clear() {
    for (NodeId i : touched_) {
      values_[i] = 0.0;
      touched_flag_[i] = 0;
    }
    touched_.clear();
  }

 private:
  std::vector<double> values_;
  std::vector<uint8_t> touched_flag_;
  std::vector<NodeId> touched_;
};

/// Hub-partial-shaped payloads: sorted sparse vectors whose supports overlap,
/// like the per-machine fold of one query chain's hubs.
std::vector<SparseVector> FoldWorkload(size_t num_nodes, size_t num_vectors,
                                       size_t entries_per_vector) {
  Rng rng(2024);
  std::vector<SparseVector> vectors;
  vectors.reserve(num_vectors);
  for (size_t v = 0; v < num_vectors; ++v) {
    std::vector<SparseVector::Entry> entries;
    entries.reserve(entries_per_vector);
    for (size_t i = 0; i < entries_per_vector; ++i) {
      entries.push_back({static_cast<NodeId>(rng.Uniform(num_nodes)),
                         rng.NextDouble() - 0.5});
    }
    vectors.push_back(SparseVector::FromEntries(std::move(entries)));
  }
  return vectors;
}

/// One serving round per iteration: fold every vector, extract the pruned
/// result, reset for the next query — the accumulator's whole query-time
/// life cycle, so the ratio can't hide a slow ToSparse behind a fast fold.
template <typename Accumulator>
double MeasureFoldSeconds(Accumulator& acc,
                          const std::vector<SparseVector>& vectors,
                          size_t rounds, SparseVector* last_result) {
  WallTimer timer;
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < vectors.size(); ++i) {
      acc.AddVector(vectors[i], 1.0 / static_cast<double>(i + 1));
    }
    *last_result = acc.ToSparse(1e-12);
    acc.Clear();
  }
  return timer.ElapsedSeconds();
}

Counters MeasureFoldKernels() {
  const size_t num_nodes = static_cast<size_t>(BenchScale(200000));
  const size_t num_vectors = 64;
  const size_t entries_per_vector = static_cast<size_t>(BenchScale(2000));
  const size_t rounds = 30;
  std::vector<SparseVector> vectors =
      FoldWorkload(num_nodes, num_vectors, entries_per_vector);
  size_t entries_per_round = 0;
  for (const SparseVector& v : vectors) entries_per_round += v.size();

  ScalarAccumulator scalar(num_nodes);
  DenseAccumulator kernel(num_nodes);
  SparseVector scalar_out, kernel_out;
  MeasureFoldSeconds(scalar, vectors, 2, &scalar_out);  // warmup
  MeasureFoldSeconds(kernel, vectors, 2, &kernel_out);
  const double scalar_seconds =
      MeasureFoldSeconds(scalar, vectors, rounds, &scalar_out);
  const double kernel_seconds =
      MeasureFoldSeconds(kernel, vectors, rounds, &kernel_out);
  // The kernels are only admissible if they are bit-identical to the scalar
  // fold (same adds, same order, same prune) — enforced, not assumed.
  DPPR_CHECK(scalar_out == kernel_out);

  const double folded =
      static_cast<double>(rounds) * static_cast<double>(entries_per_round);
  return {
      {"scalar_ns_per_entry", scalar_seconds * 1e9 / folded},
      {"kernel_ns_per_entry", kernel_seconds * 1e9 / folded},
      {"speedup", scalar_seconds / kernel_seconds},
      {"entries_per_round", static_cast<double>(entries_per_round)},
  };
}

// ---------------------------------------------------------------------------
// Cold-query latency through the disk backend (prefetch always on)
// ---------------------------------------------------------------------------

constexpr double kWebScale = 0.3;
constexpr size_t kMachines = 4;
constexpr size_t kColdRounds = 25;
constexpr size_t kQueriesPerRound = 6;

std::shared_ptr<const HgpaPrecomputation> SharedPrecomputation() {
  static auto holder = [] {
    auto graph = std::make_shared<Graph>(LoadDataset("web", kWebScale));
    auto pre = HgpaPrecomputation::RunHgpa(*graph, HgpaOptions{});
    return std::pair{graph, pre};
  }();
  return holder.second;
}

Counters MeasureColdQueries() {
  auto pre = SharedPrecomputation();
  StorageOptions storage;
  storage.backend = StorageBackend::kDisk;
  // Generous budget: every measured query runs against a *cold* cache (see
  // the per-round clone below), so the budget only needs to not interfere —
  // what is being priced is the cold read path, not eviction policy.
  storage.cache_bytes = std::numeric_limits<size_t>::max() / 2;

  // Spill once; each round clones the index, which shares the spill files
  // but starts every machine store with an empty residency cache — a
  // genuinely cold query, repeatable without re-spilling.
  HgpaIndex base = HgpaIndex::Distribute(pre, kMachines, storage);

  std::vector<NodeId> queries =
      SampleQueries(pre->graph(), kColdRounds * kQueriesPerRound);
  std::vector<double> latency_ms;
  latency_ms.reserve(queries.size());
  StorageStats totals;
  for (size_t round = 0; round < kColdRounds; ++round) {
    HgpaQueryEngine engine(base);
    for (size_t i = 0; i < kQueriesPerRound; ++i) {
      WallTimer timer;
      (void)engine.Query(queries[round * kQueriesPerRound + i]);
      latency_ms.push_back(timer.ElapsedMillis());
    }
    totals += engine.index().StorageStatsTotal();
  }

  std::sort(latency_ms.begin(), latency_ms.end());
  double sum = 0.0;
  for (double ms : latency_ms) sum += ms;
  auto quantile = [&](double q) {
    return latency_ms[static_cast<size_t>(q * (latency_ms.size() - 1))];
  };

  const double preads =
      static_cast<double>(totals.prefetch_coalesced_reads +
                          (totals.cache_misses - totals.prefetch_issued));
  return {
      {"mean_ms", sum / static_cast<double>(latency_ms.size())},
      {"p50_ms", quantile(0.5)},
      {"p95_ms", quantile(0.95)},
      {"disk_mb_read", static_cast<double>(totals.disk_bytes_read) / (1 << 20)},
      {"preads", preads},
      {"prefetch_issued", static_cast<double>(totals.prefetch_issued)},
      {"prefetch_coalesced_reads",
       static_cast<double>(totals.prefetch_coalesced_reads)},
  };
}

void RegisterRows() {
  AddRow("query_fold/kernels", MeasureFoldKernels);
  AddRow("query_fold/web/disk/prefetch=on", MeasureColdQueries);
}

}  // namespace

DPPR_BENCH_MAIN(RegisterRows)
