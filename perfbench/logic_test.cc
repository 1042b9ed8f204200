// Unit test of the benchmark's own rules (percentile selection, SLO step
// selection, the correctness gate, seeded generation). Self-contained so the
// benchmark package needs no test framework:
//   cmake -S perfbench -B <dir> && cmake --build <dir> && <dir>/perfbench_logic_test

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "logic.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileTenBeyondRule() {
  // p50 needs 20 samples: ceil(0.5*20) = 10, ten beyond.
  EXPECT(SamplesBeyond(20, 0.5) == 10);
  EXPECT(!Percentile(OneTo(19), 0.5).has_value());
  EXPECT(Percentile(OneTo(20), 0.5) == 10.0);
  // p99 needs 1000 samples.
  EXPECT(!Percentile(OneTo(999), 0.99).has_value());
  EXPECT(Percentile(OneTo(1000), 0.99) == 990.0);
  EXPECT(Percentile(OneTo(2000), 0.99) == 1980.0);
  // Nearest rank, input order irrelevant.
  EXPECT(Percentile(OneTo(101), 0.5) == 51.0);
  EXPECT(!Percentile({}, 0.5).has_value());
}

void TestSlicedP99IgnoresOneStalledSlice() {
  EXPECT(!SlicedP99(OneTo(999)).has_value());
  // One slice: the plain p99.
  EXPECT(SlicedP99(OneTo(1500)) == Percentile(OneTo(1500), 0.99));
  // Three slices of 1000 steady samples, one of them hit by a stall that
  // delays 5% of its samples: the plain p99 sees the stall, the sliced one
  // does not.
  std::vector<double> samples(3000, 1.0);
  for (size_t i = 1000; i < 1050; ++i) samples[i] = 50.0;
  EXPECT(Percentile(samples, 0.99) == 50.0);
  EXPECT(SlicedP99(samples) == 1.0);
  // Two of three slices stalled: the median follows the majority.
  for (size_t i = 2000; i < 2050; ++i) samples[i] = 50.0;
  EXPECT(SlicedP99(samples) == 50.0);
}

void TestSlicedP50IgnoresBusySlices() {
  EXPECT(!SlicedP50(std::vector<double>(3999, 1.0)).has_value());
  // Eight slices of 1000 samples at 1 ms: the figure is 1 ms.
  std::vector<double> samples(8000, 1.0);
  EXPECT(SlicedP50(samples) == 1.0);
  // A busy spell doubles every latency in six of the eight slices: the
  // pooled p50 follows it, the lower quartile of the slice p50s does not.
  for (size_t i = 2000; i < 8000; ++i) samples[i] = 2.0;
  EXPECT(Percentile(samples, 0.5) == 2.0);
  EXPECT(SlicedP50(samples) == 1.0);
  // Seven of eight slices busy: the figure moves.
  for (size_t i = 1000; i < 2000; ++i) samples[i] = 2.0;
  EXPECT(SlicedP50(samples) == 2.0);
  // A uniformly slower program moves it exactly.
  std::vector<double> slower(8000, 1.5);
  EXPECT(SlicedP50(slower) == 1.5);
}

/// Completion times over eight 1 s slices: 50/s in the first `busy`, 100/s
/// in the rest.
std::vector<double> HalvedSlices(size_t busy) {
  std::vector<double> end_s;
  for (size_t k = 0; k < 8; ++k) {
    const size_t n = k < busy ? 50 : 100;
    for (size_t i = 0; i < n; ++i) {
      end_s.push_back(static_cast<double>(k) + (static_cast<double>(i) + 0.5) / n);
    }
  }
  return end_s;
}

void TestSlicedRateIgnoresBusySlices() {
  // Completions at 100/s for 8 s: every whole 1 s slice reads 100/s.
  std::vector<double> end_s;
  for (size_t i = 0; i < 800; ++i) end_s.push_back(0.005 + 0.01 * static_cast<double>(i));
  EXPECT(SlicedRate(end_s, 8.0, 1.0) == 100.0);
  EXPECT(!SlicedRate(end_s, 3.5, 1.0).has_value());
  // The partial last slice of a 8.5 s window is not counted.
  EXPECT(SlicedRate(end_s, 8.5, 1.0) == 100.0);
  // A spell halves the rate in six of eight slices: unmoved. In seven: moved.
  EXPECT(SlicedRate(HalvedSlices(6), 8.0, 1.0) == 100.0);
  EXPECT(SlicedRate(HalvedSlices(7), 8.0, 1.0) == 50.0);
}

RateStep Step(double rate, double latency_ms, size_t samples) {
  RateStep step;
  step.rate_qps = rate;
  step.latencies_ms.assign(samples, latency_ms);
  return step;
}

void TestSloStepSelection() {
  std::vector<RateStep> steps = {Step(500, 1.0, 1200), Step(1000, 2.0, 1200),
                                 Step(2000, 4.9, 1200), Step(4000, 9.0, 1200)};
  EXPECT(SelectSloQps(steps) == 2000.0);

  // A step that sheds misses the SLO even with a fast p99, and stops the
  // ladder: a later passing step does not count.
  steps[2].shed = 1;
  steps[3] = Step(4000, 1.0, 1200);
  EXPECT(!StepMeetsSlo(steps[2]));
  EXPECT(SelectSloQps(steps) == 1000.0);

  // Errors and a generator falling behind both fail the step.
  RateStep errors = Step(500, 1.0, 1200);
  errors.errors = 1;
  EXPECT(!StepMeetsSlo(errors));
  RateStep late = Step(500, 1.0, 1200);
  late.final_late_ms = kSloP99Ms + 1.0;
  EXPECT(!StepMeetsSlo(late));

  // Sustained ignores the latency limit but not sheds or backlog.
  std::vector<RateStep> ladder = {Step(500, 1.0, 1200), Step(1000, 9.0, 1200),
                                  Step(2000, 9.0, 1200), Step(4000, 9.0, 1200)};
  ladder[3].final_late_ms = 40.0;
  EXPECT(SelectSloQps(ladder) == 500.0);
  EXPECT(SelectSustainedQps(ladder) == 2000.0);
  ladder[2].shed = 3;
  EXPECT(SelectSustainedQps(ladder) == 1000.0);

  // Backlog: a stall delaying a few final sends is not a growing backlog;
  // sends that keep falling behind are.
  std::vector<double> late_ms(1000, 0.05);
  late_ms[995] = 15.0;
  late_ms[999] = 15.0;
  EXPECT(FinalLateMs(late_ms) == 0.05);
  for (size_t i = 0; i < late_ms.size(); ++i) {
    late_ms[i] = 0.02 * static_cast<double>(i);
  }
  EXPECT(FinalLateMs(late_ms) > kSloP99Ms);

  // Too few samples for a p99: not a pass.
  EXPECT(!StepMeetsSlo(Step(500, 1.0, 999)));
  // First step misses: nothing sustainable.
  std::vector<RateStep> none = {Step(500, 6.0, 1200)};
  EXPECT(SelectSloQps(none) == 0.0);
}

void TestGateRejectsOneValueBit() {
  std::vector<dppr::SparseVector::Entry> entries = {
      {3, 0.25}, {7, 0.125}, {11, 1.0 / 3.0}};
  dppr::SparseVector reference = dppr::SparseVector::FromEntries(entries);
  dppr::SparseVector same = dppr::SparseVector::FromEntries(entries);
  entries[2].value = std::bit_cast<double>(
      std::bit_cast<uint64_t>(entries[2].value) ^ uint64_t{1});
  dppr::SparseVector perturbed = dppr::SparseVector::FromEntries(entries);

  EXPECT(HashVector(reference) == HashVector(same));
  EXPECT(HashVector(reference) != HashVector(perturbed));

  std::vector<uint64_t> expected = {HashVector(reference), HashVector(same)};
  std::vector<uint64_t> observed = {HashVector(same), HashVector(perturbed)};
  std::vector<size_t> mismatches = GateMismatches(observed, expected);
  EXPECT(mismatches.size() == 1 && mismatches[0] == 1);

  EXPECT(HashTopK(TopK(reference, 2)) == HashTopK(TopK(same, 2)));
  EXPECT(HashTopK(TopK(reference, 2)) != HashTopK(TopK(perturbed, 3)));
  // Ranking: value descending.
  std::vector<dppr::SparseVector::Entry> top = TopK(reference, 2);
  EXPECT(top.size() == 2 && top[0].index == 11 && top[1].index == 3);
}

void TestSeededGeneration() {
  std::vector<size_t> degrees(500);
  for (size_t u = 0; u < degrees.size(); ++u) degrees[u] = (u * 37) % 23;
  ZipfSampler zipf(degrees, 1.0);

  std::vector<Request> a = GenerateHotRequests(zipf, 4000, 7);
  std::vector<Request> b = GenerateHotRequests(zipf, 4000, 7);
  std::vector<Request> c = GenerateHotRequests(zipf, 4000, 8);
  EXPECT(a == b);
  EXPECT(a != c);

  size_t kinds[4] = {0, 0, 0, 0};
  for (const Request& r : a) ++kinds[static_cast<size_t>(r.kind)];
  EXPECT(kinds[0] > 2900 && kinds[0] < 3400);  // ~78% of all
  EXPECT(kinds[1] > 300 && kinds[1] < 500);
  EXPECT(kinds[2] > 300 && kinds[2] < 500);
  EXPECT(kinds[3] > 40 && kinds[3] < 130);
  for (const Request& r : a) {
    EXPECT(r.sources.size() ==
           (r.kind == RequestKind::kPreferenceSet ? 3u : 1u));
  }

  EXPECT(GenerateUniformQueries(500, 100, 3) ==
         GenerateUniformQueries(500, 100, 3));
  EXPECT(GenerateUniformQueries(500, 100, 3) !=
         GenerateUniformQueries(500, 100, 4));
  EXPECT(SubSeed(1, 0) != SubSeed(1, 1));
  EXPECT(SubSeed(1, 0) != SubSeed(2, 0));
}

}  // namespace

int main() {
  TestPercentileTenBeyondRule();
  TestSlicedP99IgnoresOneStalledSlice();
  TestSlicedP50IgnoresBusySlices();
  TestSlicedRateIgnoresBusySlices();
  TestSloStepSelection();
  TestGateRejectsOneValueBit();
  TestSeededGeneration();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_logic_test: all passed\n");
  return 0;
}
