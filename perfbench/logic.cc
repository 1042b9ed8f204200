#include "logic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "dppr/common/macros.h"

namespace perfbench {

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (SamplesBeyond(n, q) < 10) return std::nullopt;
  const size_t rank = n - SamplesBeyond(n, q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

namespace {

/// The q-percentile of each of the consecutive slices of at least
/// `slice_samples` samples, sorted ascending (empty below one slice).
std::vector<double> SlicePercentiles(std::span<const double> samples,
                                     size_t slice_samples, double q) {
  const size_t slices = samples.size() / slice_samples;
  std::vector<double> out;
  for (size_t k = 0; k < slices; ++k) {
    const size_t begin = k * samples.size() / slices;
    const size_t end = (k + 1) * samples.size() / slices;
    out.push_back(*Percentile({samples.begin() + begin, samples.begin() + end}, q));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::optional<double> SlicedP99(std::span<const double> samples) {
  const std::vector<double> p99s = SlicePercentiles(samples, kP99SliceSamples, 0.99);
  const size_t slices = p99s.size();
  if (slices == 0) return std::nullopt;
  return slices % 2 == 1 ? p99s[slices / 2]
                         : 0.5 * (p99s[slices / 2 - 1] + p99s[slices / 2]);
}

std::optional<double> SlicedP50(std::span<const double> samples) {
  const std::vector<double> p50s = SlicePercentiles(samples, kP50SliceSamples, 0.5);
  if (p50s.size() < kP50MinSlices) return std::nullopt;
  const size_t rank = static_cast<size_t>(std::ceil(0.25 * static_cast<double>(p50s.size())));
  return p50s[rank - 1];
}

std::optional<double> SlicedRate(std::span<const double> end_s, double window_s,
                                 double slice_s) {
  const size_t slices = static_cast<size_t>(window_s / slice_s);
  if (slices < kRateMinSlices) return std::nullopt;
  std::vector<double> rates(slices, 0.0);
  for (const double t : end_s) {
    const size_t k = static_cast<size_t>(t / slice_s);
    if (t >= 0.0 && k < slices) rates[k] += 1.0 / slice_s;
  }
  // Nearest rank counted from the top, mirroring SlicedP50's from the bottom.
  std::sort(rates.begin(), rates.end(), std::greater<>());
  const size_t rank = static_cast<size_t>(std::ceil(0.25 * static_cast<double>(slices)));
  return rates[rank - 1];
}

double FinalLateMs(std::span<const double> late_ms) {
  const size_t tail =
      std::min(late_ms.size(), std::max<size_t>(10, late_ms.size() / 10));
  if (tail == 0) return 0.0;
  std::vector<double> last(late_ms.end() - tail, late_ms.end());
  std::nth_element(last.begin(), last.begin() + tail / 2, last.end());
  return last[tail / 2];
}

bool StepSustained(const RateStep& step) {
  return step.shed == 0 && step.errors == 0 && step.final_late_ms <= kSloP99Ms;
}

bool StepMeetsSlo(const RateStep& step) {
  if (!StepSustained(step)) return false;
  std::optional<double> p99 = SlicedP99(step.latencies_ms);
  return p99.has_value() && *p99 <= kSloP99Ms;
}

namespace {

double HighestPassing(std::span<const RateStep> steps,
                      bool (*pass)(const RateStep&)) {
  double best = 0.0;
  for (const RateStep& step : steps) {
    if (!pass(step)) break;
    best = step.rate_qps;
  }
  return best;
}

}  // namespace

double SelectSloQps(std::span<const RateStep> steps) {
  return HighestPassing(steps, StepMeetsSlo);
}

double SelectSustainedQps(std::span<const RateStep> steps) {
  return HighestPassing(steps, StepSustained);
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Mix(uint64_t hash, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t HashEntries(std::span<const dppr::SparseVector::Entry> entries) {
  uint64_t hash = Mix(kFnvOffset, entries.size());
  for (const auto& entry : entries) {
    hash = Mix(hash, entry.index);
    hash = Mix(hash, std::bit_cast<uint64_t>(entry.value));
  }
  return hash;
}

}  // namespace

uint64_t HashVector(const dppr::SparseVector& vector) {
  return HashEntries(vector.entries());
}

uint64_t HashTopK(std::span<const dppr::SparseVector::Entry> top) {
  // Distinct domain from HashVector so a top-k list never collides with a
  // full answer of the same entries.
  return Mix(HashEntries(top), 0x746f706bULL);
}

std::vector<dppr::SparseVector::Entry> TopK(const dppr::SparseVector& vector,
                                            size_t k) {
  std::vector<dppr::SparseVector::Entry> entries(vector.entries().begin(),
                                                 vector.entries().end());
  const size_t keep = std::min(k, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + keep, entries.end(),
                    [](const auto& a, const auto& b) {
                      if (a.value != b.value) return a.value > b.value;
                      return a.index < b.index;
                    });
  entries.resize(keep);
  return entries;
}

std::vector<size_t> GateMismatches(std::span<const uint64_t> observed,
                                   std::span<const uint64_t> reference) {
  DPPR_CHECK_EQ(observed.size(), reference.size());
  std::vector<size_t> mismatches;
  for (size_t i = 0; i < observed.size(); ++i) {
    if (observed[i] != reference[i]) mismatches.push_back(i);
  }
  return mismatches;
}

ZipfSampler::ZipfSampler(std::span<const size_t> out_degrees, double exponent)
    : ranked_(out_degrees.size()), cumulative_(out_degrees.size()) {
  DPPR_CHECK(!out_degrees.empty());
  for (size_t u = 0; u < ranked_.size(); ++u) ranked_[u] = static_cast<NodeId>(u);
  std::sort(ranked_.begin(), ranked_.end(), [&](NodeId a, NodeId b) {
    if (out_degrees[a] != out_degrees[b]) return out_degrees[a] > out_degrees[b];
    return a < b;
  });
  double total = 0.0;
  for (size_t r = 0; r < ranked_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cumulative_[r] = total;
  }
}

NodeId ZipfSampler::Sample(double uniform) const {
  const double target = uniform * cumulative_.back();
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), target);
  const size_t rank = std::min<size_t>(
      static_cast<size_t>(it - cumulative_.begin()), ranked_.size() - 1);
  return ranked_[rank];
}

uint64_t SeededStream::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  SeededStream mixer(seed ^ (0x5851f42d4c957f2dULL * (stream + 1)));
  return mixer.Next();
}

std::vector<Request> GenerateHotRequests(const ZipfSampler& zipf, size_t count,
                                         uint64_t seed) {
  SeededStream rng(seed);
  std::vector<Request> requests(count);
  for (Request& request : requests) {
    const double kind = rng.Uniform();
    if (kind < 0.02) {
      request.kind = RequestKind::kInvalidate;
    } else if (kind < 0.80) {
      request.kind = RequestKind::kQuery;
    } else if (kind < 0.90) {
      request.kind = RequestKind::kTopK;
    } else {
      request.kind = RequestKind::kPreferenceSet;
    }
    const size_t sources =
        request.kind == RequestKind::kPreferenceSet ? 3 : 1;
    for (size_t s = 0; s < sources; ++s) {
      request.sources.push_back(zipf.Sample(rng.Uniform()));
    }
  }
  return requests;
}

std::vector<Request> GenerateUniformQueries(size_t num_nodes, size_t count,
                                            uint64_t seed) {
  SeededStream rng(seed);
  std::vector<Request> requests(count);
  for (Request& request : requests) {
    request.sources.push_back(static_cast<NodeId>(rng.Below(num_nodes)));
  }
  return requests;
}

}  // namespace perfbench
