// Pure benchmark logic shared by the driver and its unit test: percentile
// selection under the ten-beyond rule, SLO rate-step selection, answer
// hashing for the correctness gate, and seeded request generation. Nothing
// here touches the clock or the serving stack, so every rule is testable in
// isolation (perfbench/logic_test.cc).

#ifndef PERFBENCH_LOGIC_H_
#define PERFBENCH_LOGIC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dppr/graph/types.h"
#include "dppr/ppr/sparse_vector.h"

namespace perfbench {

using dppr::NodeId;

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

/// Samples strictly beyond the nearest-rank q-quantile of n samples: the
/// quantile is the ceil(q·n)-th smallest value, and n - ceil(q·n) samples
/// rank above it.
size_t SamplesBeyond(size_t n, double q);

/// Nearest-rank q-quantile of `samples` (any order), or nullopt when fewer
/// than ten samples lie beyond it — a tail figure resting on a handful of
/// points is noise, so it is not reported at all.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Minimum samples per slice for SlicedP99 (a reportable p99 needs 1000).
inline constexpr size_t kP99SliceSamples = 1000;

/// Median, over consecutive slices of at least kP99SliceSamples samples (in
/// the given order), of each slice's p99; nullopt below one full slice. A
/// host stall inflates the p99 of the slice it lands in, not the figure.
std::optional<double> SlicedP99(std::span<const double> samples);

/// Minimum samples per slice for SlicedP50, and the fewest slices it needs.
inline constexpr size_t kP50SliceSamples = 1000;
inline constexpr size_t kP50MinSlices = 4;

/// Lower quartile (nearest rank), over consecutive slices of at least
/// kP50SliceSamples samples (in the given order), of each slice's p50;
/// nullopt below kP50MinSlices slices. A host busy spell raises the p50 of
/// the slices it covers and leaves this figure alone unless it covers more
/// than three quarters of them; a slower program raises every slice, and
/// this figure with them.
std::optional<double> SlicedP50(std::span<const double> samples);

/// Fewest whole slices SlicedRate needs.
inline constexpr size_t kRateMinSlices = 4;

/// Upper quartile (nearest rank from the top), over the whole `slice_s`-second slices of
/// a `window_s`-second window, of each slice's completions per second;
/// `end_s` holds each completion's time from the window start. nullopt
/// below kRateMinSlices slices. The mirror of SlicedP50: a host busy spell
/// lowers the slices it covers and leaves this figure alone unless it covers
/// more than three quarters of them.
std::optional<double> SlicedRate(std::span<const double> end_s, double window_s,
                                 double slice_s);

// ---------------------------------------------------------------------------
// SLO rate steps.
// ---------------------------------------------------------------------------

/// Latency limit on the served p99 that a rate step must meet.
inline constexpr double kSloP99Ms = 5.0;

/// Outcome of one fixed-rate step of the open-loop ladder.
struct RateStep {
  double rate_qps = 0.0;
  /// Read latencies in ms, each timed from its scheduled send.
  std::vector<double> latencies_ms;
  uint64_t shed = 0;
  uint64_t errors = 0;
  /// Median lateness (ms) with which the generator sent the step's last 10%
  /// of arrivals. A server that cannot keep up leaves every sender busy, so
  /// sends fall further behind for the rest of the step: the backlog grows.
  /// A single host stall delays a handful of sends, not the median.
  double final_late_ms = 0.0;
};

/// Median of the lateness of the last 10% (at least ten) of `late_ms`.
double FinalLateMs(std::span<const double> late_ms);

/// True when nothing was shed or failed and the backlog did not grow
/// (final_late_ms within kSloP99Ms): the server kept up with the rate.
bool StepSustained(const RateStep& step);

/// StepSustained, and the step's sliced p99 (SlicedP99) is reportable and
/// within kSloP99Ms.
bool StepMeetsSlo(const RateStep& step);

/// Highest rate of the ascending `steps` reached before the first step that
/// misses the SLO (0 when the first step already misses it).
double SelectSloQps(std::span<const RateStep> steps);

/// Same with StepSustained: the highest rate the server kept up with.
double SelectSustainedQps(std::span<const RateStep> steps);

// ---------------------------------------------------------------------------
// Correctness gate.
// ---------------------------------------------------------------------------

/// FNV-1a over the (index, value bits) entries in index order: two vectors
/// hash equal only when every entry matches bit for bit.
uint64_t HashVector(const dppr::SparseVector& vector);

/// Same over a top-k list in its ranked order.
uint64_t HashTopK(std::span<const dppr::SparseVector::Entry> top);

/// Top-k (value descending, node ascending on ties) of a full answer — the
/// ranking QueryServer::QueryTopK applies.
std::vector<dppr::SparseVector::Entry> TopK(const dppr::SparseVector& vector,
                                            size_t k);

/// Indices i where observed[i] != reference[i]; the spans must be the same
/// length.
std::vector<size_t> GateMismatches(std::span<const uint64_t> observed,
                                   std::span<const uint64_t> reference);

// ---------------------------------------------------------------------------
// Seeded request generation.
// ---------------------------------------------------------------------------

enum class RequestKind : uint8_t { kQuery, kTopK, kPreferenceSet, kInvalidate };

/// One generated request. kQuery / kTopK / kInvalidate use sources[0];
/// kPreferenceSet weights sources by kPreferenceWeights.
struct Request {
  RequestKind kind = RequestKind::kQuery;
  std::vector<NodeId> sources;
  bool operator==(const Request&) const = default;
};

inline constexpr size_t kTopK = 10;
inline constexpr double kPreferenceWeights[3] = {0.5, 0.3, 0.2};

/// Zipf(s) sampler over nodes ranked by out-degree (rank 0 = highest degree,
/// ties by id).
class ZipfSampler {
 public:
  ZipfSampler(std::span<const size_t> out_degrees, double exponent);
  /// `uniform` in [0, 1).
  NodeId Sample(double uniform) const;

 private:
  std::vector<NodeId> ranked_;
  std::vector<double> cumulative_;
};

/// Deterministic splitmix64 stream: the same seed yields the same sequence
/// on every platform (std:: distributions are implementation-defined).
class SeededStream {
 public:
  explicit SeededStream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Independent sub-stream seeds for one run: warm-up, measured window and
/// ladder never share draws, so resizing one never shifts another.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Hot mix: ~2% invalidations, then of the reads ~80% Query, ~10%
/// QueryTopK(kTopK), ~10% 3-source preference sets; every source zipf.
std::vector<Request> GenerateHotRequests(const ZipfSampler& zipf, size_t count,
                                         uint64_t seed);

/// Cold mix: plain Query over uniformly drawn sources.
std::vector<Request> GenerateUniformQueries(size_t num_nodes, size_t count,
                                            uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LOGIC_H_
