// The workloads. Each builds its index through the production path,
// generates every request from --seed before its timed phase, measures, and
// only then builds the oracle and checks every answer.

#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <thread>
#include <tuple>

#include "bench.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"
#include "dppr/serve/query_server.h"

namespace perfbench {

using namespace dppr;

namespace {

/// Setups per run; setup_s is their median.
constexpr int kServingSetups = 3;

/// Hot workload shape. Rates are absolute (no per-run calibration).
constexpr double kHotReferenceQps = 800.0;
constexpr size_t kHotReplicateBytes = size_t{4} << 20;
constexpr size_t kHotResultCacheBytes = size_t{16} << 20;
/// Admission bound = the generator's concurrency: with at most
/// GeneratorThreads() requests in flight the queue never overflows, so
/// overload shows as generator backlog (late sends) rather than as sheds,
/// and a host stall cannot turn into failed requests at the reference rate.
constexpr size_t kHotMaxPending = 4;
constexpr double kWarmupSeconds = 1.0;
/// Rate ladder: the reference rate, then fixed absolute rates ~10% apart,
/// one p99 slice (~1100 reads) per step.
constexpr double kLadderQps[] = {kHotReferenceQps, 900,  1000, 1100, 1200,
                                 1300, 1450, 1600, 1750, 1900, 2100, 2300,
                                 2500, 2800, 3100, 3500};
constexpr size_t kLadderArrivals = 1100;
/// The ladder stops starting steps after this long, whatever --seconds is.
constexpr double kLadderSeconds = 10.0;
/// A rate the server did not keep up with is retried once with a fresh
/// stream before the ladder stops: a host stall right at the end of a step
/// (vCPU wake-ups 2-20 ms late, about once a second on a shared 4-vCPU VM)
/// must not end the ladder.
constexpr size_t kLadderAttempts = 2;
/// Saturation window (untraced runs): every generator thread sends its next
/// request as soon as the last returns, for this long, from a pool of this
/// many requests. The hot `qps` is its SlicedRate over 1 s slices.
constexpr double kSaturationSeconds = 10.0;
constexpr size_t kSaturationPool = 60000;
constexpr double kRateSliceSeconds = 1.0;

/// Cold workload shape.
constexpr size_t kColdClients = 4;
constexpr size_t kColdCacheBytes = size_t{4} << 20;
constexpr size_t kColdWarmupQueries = 40;

/// Tracing is toggled in chunks of this length within a traced window, so
/// traced and untraced requests interleave under the same cache state.
constexpr double kTraceChunkSeconds = 0.25;

/// Load generator threads: at most one per core, and at most four.
size_t GeneratorThreads() {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<size_t>(4, cores);
}

/// Servers created by this process, in order: QueryServer labels its
/// registry series {server="N"} by creation order, and only this driver
/// creates servers.
size_t g_servers_created = 0;

std::string ServerSeries(const std::string& name, size_t server) {
  return name + "{server=\"" + std::to_string(server) + "\"}";
}

struct Served {
  double latency_ms = 0.0;
  double late_ms = 0.0;
  /// Closed loop: completion time from the window start, in seconds.
  double end_s = 0.0;
  uint64_t hash = 0;
  uint64_t comm_bytes = 0;
  bool shed = false;
  bool cache_hit = false;
  bool traced = false;
  bool done = false;
};

/// Issues one request; returns the completion time (stamped before hashing).
using IssueFn = std::function<Clock::time_point(const Request&, Served&)>;

Clock::time_point IssueToServer(QueryServer& server, const Request& request,
                                Served& out) {
  const NodeId source = request.sources[0];
  switch (request.kind) {
    case RequestKind::kInvalidate: {
      server.Invalidate(source);
      return Clock::now();
    }
    case RequestKind::kTopK: {
      QueryServer::TopKResponse r = server.QueryTopK(source, kTopK);
      const Clock::time_point end = Clock::now();
      out.shed = r.shed;
      out.cache_hit = r.cache_hit;
      out.comm_bytes = r.metrics.comm.bytes;
      out.hash = HashTopK(r.top);
      return end;
    }
    case RequestKind::kQuery:
    case RequestKind::kPreferenceSet: {
      QueryServer::Response r =
          request.kind == RequestKind::kQuery
              ? server.Query(source)
              : server.QueryPreferenceSet(Preferences(request));
      const Clock::time_point end = Clock::now();
      out.shed = r.shed;
      out.cache_hit = r.cache_hit;
      out.comm_bytes = r.metrics.comm.bytes;
      out.hash = HashVector(r.ppv);
      return end;
    }
  }
  return Clock::now();
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Flips the global tracer every kTraceChunkSeconds until `done`.
void ToggleTracing(const std::atomic<bool>& done) {
  obs::Tracer& tracer = obs::Tracer::Global();
  bool on = false;
  tracer.set_enabled(on);
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kTraceChunkSeconds));
    on = !on;
    tracer.set_enabled(on);
  }
  tracer.set_enabled(true);
}

/// Load-generator threads that live for the whole run: a fresh thread would
/// pay the library's per-thread first-use costs inside the measured window.
class Workers {
 public:
  explicit Workers(size_t count) {
    for (size_t t = 0; t < count; ++t) {
      threads_.emplace_back([this] { Loop(); });
    }
  }
  ~Workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  /// Runs `job` once on every thread; returns when all have finished.
  void RunOnAll(const std::function<void()>& job) {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = &job;
    running_ = threads_.size();
    ++generation_;
    cv_.notify_all();
    done_cv_.wait(lock, [&] { return running_ == 0; });
    job_ = nullptr;
  }

 private:
  void Loop() {
    // Default 50 us timer slack would add itself to every open-loop latency.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      const std::function<void()>* job = job_;
      lock.unlock();
      (*job)();
      lock.lock();
      if (--running_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void()>* job_ = nullptr;
  size_t running_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Runs `body` on the workers while, if asked, a side thread flips tracing.
void RunWithTracingToggle(Workers& workers, const std::function<void()>& body,
                          bool toggle_tracing) {
  std::atomic<bool> done{false};
  std::thread toggler;
  if (toggle_tracing) toggler = std::thread(ToggleTracing, std::cref(done));
  workers.RunOnAll(body);
  done = true;
  if (toggler.joinable()) toggler.join();
}

/// Open loop: requests[i] is due at start + i/rate regardless of earlier
/// completions; every worker sends, and each latency is timed from the due
/// time, so a stall is charged to every request it delays.
std::vector<Served> OpenLoop(Workers& workers, std::span<const Request> requests,
                             double rate_qps, const IssueFn& issue,
                             bool toggle_tracing) {
  std::vector<Served> served(requests.size());
  std::atomic<size_t> next{0};
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(std::llround(1e9 / rate_qps)));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  RunWithTracingToggle(
      workers,
      [&] {
        const obs::Tracer& tracer = obs::Tracer::Global();
        for (size_t i = next.fetch_add(1); i < requests.size();
             i = next.fetch_add(1)) {
          const Clock::time_point due = start + interval * static_cast<int64_t>(i);
          std::this_thread::sleep_until(due);
          Served& s = served[i];
          s.late_ms = Ms(Clock::now() - due);
          s.traced = tracer.enabled();
          s.latency_ms = Ms(issue(requests[i], s) - due);
          s.done = true;
        }
      },
      toggle_tracing);
  return served;
}

/// Closed loop: each worker sends its next request when the previous one
/// returns, until `seconds` have passed or requests run out. Returns the
/// served prefix and the window length.
std::pair<std::vector<Served>, double> ClosedLoop(Workers& workers,
                                                  std::span<const Request> requests,
                                                  double seconds,
                                                  const IssueFn& issue,
                                                  bool toggle_tracing) {
  std::vector<Served> served(requests.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  RunWithTracingToggle(
      workers,
      [&] {
        const obs::Tracer& tracer = obs::Tracer::Global();
        while (Clock::now() < deadline) {
          const size_t i = next.fetch_add(1);
          if (i >= requests.size()) break;
          Served& s = served[i];
          const Clock::time_point sent = Clock::now();
          s.traced = tracer.enabled();
          const Clock::time_point end = issue(requests[i], s);
          s.latency_ms = Ms(end - sent);
          s.end_s = std::chrono::duration<double>(end - start).count();
          s.done = true;
        }
      },
      toggle_tracing);
  const double elapsed = SecondsSince(start);
  // Workers claim indices in order and finish what they claim, so the
  // served requests form a prefix.
  size_t completed = 0;
  while (completed < served.size() && served[completed].done) ++completed;
  served.resize(completed);
  return {std::move(served), elapsed};
}

std::vector<double> ReadLatencies(std::span<const Request> requests,
                                  std::span<const Served> served,
                                  int traced = -1) {
  std::vector<double> out;
  for (size_t i = 0; i < served.size(); ++i) {
    if (requests[i].kind == RequestKind::kInvalidate || served[i].shed) continue;
    if (traced >= 0 && served[i].traced != (traced == 1)) continue;
    out.push_back(served[i].latency_ms);
  }
  return out;
}

double Median(std::vector<double> v) {
  DPPR_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The pooled p50 and the latency tail, printed but not gated: on a shared
/// VM they measure host stalls as much as the server (see perfbench/README.md).
std::string LatencyNote(const std::vector<double>& latencies) {
  char line[224];
  std::snprintf(line, sizeof(line),
                "latency: pooled p50 %.3f ms, p90 %.3f ms, sliced p99 %.3f ms, p99 %.3f ms, "
                "p99.9 %.3f ms (n=%zu; -1 = too few)",
                Percentile(latencies, 0.5).value_or(-1.0),
                Percentile(latencies, 0.9).value_or(-1.0),
                SlicedP99(latencies).value_or(-1.0),
                Percentile(latencies, 0.99).value_or(-1.0),
                Percentile(latencies, 0.999).value_or(-1.0), latencies.size());
  return line;
}

/// A served open-loop step as the SLO rule sees it.
RateStep ToRateStep(double rate_qps, std::span<const Request> requests,
                    std::span<const Served> served) {
  RateStep step;
  step.rate_qps = rate_qps;
  step.latencies_ms = ReadLatencies(requests, served);
  std::vector<double> late;
  for (const Served& s : served) {
    step.shed += s.shed ? 1 : 0;
    late.push_back(s.late_ms);
  }
  step.final_late_ms = FinalLateMs(late);
  return step;
}

std::string StepNote(const RateStep& step, size_t attempt) {
  std::optional<double> p99 = SlicedP99(step.latencies_ms);
  char line[192];
  std::snprintf(line, sizeof(line),
                "ladder %6.0f qps%s: p99 %.3f ms (n=%zu) shed %llu final late %.3f ms: %s, %s",
                step.rate_qps, attempt > 0 ? " rerun" : "", p99.value_or(-1.0),
                step.latencies_ms.size(), static_cast<unsigned long long>(step.shed),
                step.final_late_ms, StepSustained(step) ? "kept up" : "fell behind",
                StepMeetsSlo(step) ? "meets SLO" : "misses SLO");
  return line;
}

/// Registry counter / histogram deltas over a window: the process-wide
/// transport and store series, plus one server's admission-wait and
/// batch-size series when `server` is given.
class RegistryWindow {
 public:
  // Counter order: tcp bytes, tcp frames, inproc bytes, inproc frames,
  // coalesced prefetch reads. Histogram order: miss extent reads, then the
  // server's admission waits and batch sizes.
  explicit RegistryWindow(std::optional<size_t> server) {
    auto& registry = obs::MetricsRegistry::Global();
    for (const char* name : {"net.tcp.bytes_sent", "net.tcp.frames_sent",
                             "net.inproc.bytes_sent", "net.inproc.frames_sent",
                             "store.prefetch.coalesced_reads"}) {
      counters_.emplace_back(registry.GetCounter(name), 0);
    }
    std::vector<std::string> histograms = {"store.disk.miss_extent_read_us"};
    if (server.has_value()) {
      histograms.push_back(ServerSeries("serve.admission_wait_us", *server));
      histograms.push_back(ServerSeries("serve.batch_size", *server));
    }
    for (const std::string& name : histograms) {
      histograms_.emplace_back(registry.GetHistogram(name),
                               obs::Histogram::Snapshot{});
    }
    for (auto& [c, base] : counters_) base = c->Value();
    for (auto& [h, base] : histograms_) base = h->TakeSnapshot();
  }
  uint64_t Bytes() const { return Counter(0) + Counter(2); }
  uint64_t Frames() const { return Counter(1) + Counter(3); }
  uint64_t Preads() const { return Counter(4) + Histogram(0).total; }
  obs::Histogram::Snapshot AdmissionWaitUs() const { return Histogram(1); }
  obs::Histogram::Snapshot BatchSizes() const { return Histogram(2); }

 private:
  uint64_t Counter(size_t i) const {
    return counters_[i].first->Value() - counters_[i].second;
  }
  obs::Histogram::Snapshot Histogram(size_t i) const {
    DPPR_CHECK_LT(i, histograms_.size());
    return histograms_[i].first->TakeSnapshot().Since(histograms_[i].second);
  }
  std::vector<std::pair<obs::Counter*, uint64_t>> counters_;
  std::vector<std::pair<obs::Histogram*, obs::Histogram::Snapshot>> histograms_;
};

/// Histogram quantile under the ten-beyond rule (-1 when unreportable).
double HistogramQuantile(const obs::Histogram::Snapshot& snap, double q) {
  if (SamplesBeyond(snap.total, q) < 10) return -1.0;
  return static_cast<double>(snap.Quantile(q));
}

/// Serving-layer figures of a server's window.
void ServeLayerMetrics(const RegistryWindow& window, const ServerStats& stats,
                       MetricTable& out) {
  const obs::Histogram::Snapshot wait = window.AdmissionWaitUs();
  for (const auto& [name, q] : {std::pair{"serve.admission_wait_ms.p50", 0.5},
                                std::pair{"serve.admission_wait_ms.p99", 0.99}}) {
    const double us = HistogramQuantile(wait, q);
    out.Set(name, us < 0 ? -1.0 : us / 1e3, "ms", wait.total);
  }
  out.Set("serve.batch_mean", stats.mean_batch, "count", stats.rounds);
  const double lookups =
      static_cast<double>(stats.result_cache_hits + stats.result_cache_misses);
  out.Set("serve.result_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(stats.result_cache_hits) / lookups
                      : 0.0,
          "ratio");
}

/// Per-query net and store figures of a window (`round_reads`: reads that
/// ran a cluster round), plus machine-rounds per read.
void NetStoreLayerMetrics(const RegistryWindow& window, const StorageStats& storage,
                          uint64_t machine_rounds, uint64_t round_reads,
                          MetricTable& out) {
  const double rounds = std::max<double>(1.0, static_cast<double>(round_reads));
  out.Set("dist.machine_rounds_per_query",
          static_cast<double>(machine_rounds) / rounds, "count");
  out.Set("net.bytes_per_query", static_cast<double>(window.Bytes()) / rounds,
          "bytes");
  out.Set("net.frames_per_query", static_cast<double>(window.Frames()) / rounds,
          "count");
  const double lookups =
      static_cast<double>(storage.cache_hits + storage.cache_misses);
  out.Set("store.hit_ratio",
          lookups > 0 ? static_cast<double>(storage.cache_hits) / lookups : 0.0,
          "ratio");
  out.Set("store.misses_per_query",
          static_cast<double>(storage.cache_misses) / rounds, "count");
  out.Set("store.disk_mb_per_query",
          static_cast<double>(storage.disk_bytes_read) / 1e6 / rounds, "MB");
  out.Set("store.preads_per_query", static_cast<double>(window.Preads()) / rounds,
          "count");
}

void BuildLayerMetrics(const BuildReport& build, MetricTable& out) {
  out.Set("core.precompute_s", build.precompute_s, "s");
  out.Set("core.offline_max_machine_s", build.offline_max_machine_s, "s");
  out.Set("core.index_adopt_s", build.adopt_s, "s");
  out.Set("partition.hierarchy_s", build.hierarchy_s, "s");
  out.Set("partition.hubs", static_cast<double>(build.hubs), "count");
  out.Set("dist.offline_rounds", static_cast<double>(build.offline_rounds), "count");
  out.Set("dist.offline_sim_s", build.offline_sim_s, "s");
  out.Set("net.offline_shuffled_mb",
          static_cast<double>(build.shuffled_bytes) / 1e6, "MB");
}

/// Trace overhead from the interleaved halves of a toggled window.
void TraceOverhead(std::span<const Request> requests,
                   std::span<const Served> served, MetricTable& out) {
  std::vector<double> off = ReadLatencies(requests, served, 0);
  std::vector<double> on = ReadLatencies(requests, served, 1);
  std::optional<double> p_off = Percentile(off, 0.5);
  std::optional<double> p_on = Percentile(on, 0.5);
  out.Set("obs.trace_overhead_pct",
          p_off && p_on && *p_off > 0 ? (*p_on - *p_off) / *p_off * 100.0 : -1.0,
          "%", on.size());
}

/// Replay samples: up to `limit` reads from the traced chunks, evenly spaced.
std::vector<ReplaySample> PickReplaySamples(std::span<const Request> requests,
                                            std::span<const Served> served,
                                            size_t limit) {
  std::vector<size_t> candidates;
  for (size_t i = 0; i < served.size(); ++i) {
    if (!served[i].traced || served[i].shed) continue;
    if (requests[i].kind == RequestKind::kInvalidate) continue;
    candidates.push_back(i);
  }
  std::vector<ReplaySample> samples;
  const size_t take = std::min(limit, candidates.size());
  for (size_t k = 0; k < take; ++k) {
    const size_t i = candidates[k * candidates.size() / take];
    samples.push_back({&requests[i], served[i].latency_ms, served[i].cache_hit});
  }
  return samples;
}

/// Verifies every served read of `requests` against the oracle.
uint64_t VerifyServed(Oracle& oracle, std::span<const Request> requests,
                      std::span<const Served> served,
                      std::vector<std::string>& notes) {
  std::vector<const Request*> checked;
  std::vector<uint64_t> hashes;
  for (size_t i = 0; i < served.size(); ++i) {
    if (!served[i].done || served[i].shed) continue;
    if (requests[i].kind == RequestKind::kInvalidate) continue;
    checked.push_back(&requests[i]);
    hashes.push_back(served[i].hash);
  }
  return VerifyAnswers(oracle, checked, hashes, notes);
}

double CommKbPerQuery(std::span<const Request> requests,
                      std::span<const Served> served, uint64_t* round_reads) {
  uint64_t bytes = 0, reads = 0;
  for (size_t i = 0; i < served.size(); ++i) {
    if (requests[i].kind == RequestKind::kInvalidate) continue;
    if (served[i].shed || served[i].cache_hit || !served[i].done) continue;
    bytes += served[i].comm_bytes;
    ++reads;
  }
  if (round_reads != nullptr) *round_reads = reads;
  return reads > 0 ? static_cast<double>(bytes) / 1024.0 / static_cast<double>(reads)
                   : 0.0;
}

/// One serving setup: graph, production-path index, engine, server.
struct ServingStack {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<QueryServer> server;
  BuildReport build;
  size_t server_id = 0;
};

ServingStack MakeServingStack(const StorageOptions& storage,
                              const ReplicationOptions& replication,
                              TransportBackend transport,
                              const ServeOptions& serve) {
  ServingStack stack;
  stack.graph = LoadWeb();
  auto [index, build] = BuildIndex(*stack.graph, storage, replication);
  stack.build = build;
  HgpaQueryEngine engine(std::move(index), NetworkModel{},
                         TransportOptions{transport},
                         RoutingOptions{RoutingMode::kRoute});
  stack.server = std::make_unique<QueryServer>(std::move(engine), serve);
  stack.server_id = g_servers_created++;
  return stack;
}

/// Sets up `setups` times (the first timed from process start) and keeps the
/// last stack; records each setup's time and its index build time.
void RepeatSetup(int setups, const std::function<ServingStack()>& make,
                 ServingStack& keep, Clock::time_point process_start,
                 std::vector<double>& setup_s, std::vector<double>& build_s) {
  for (int k = 0; k < setups; ++k) {
    keep = ServingStack{};  // release the previous stack before rebuilding
    // Hand the freed heap back, so each setup's peak is its own and not
    // stacked on the previous setup's fragments.
    malloc_trim(0);
    const Clock::time_point start = k == 0 ? process_start : Clock::now();
    keep = make();
    setup_s.push_back(SecondsSince(start));
    build_s.push_back(keep.build.build_s);
  }
}

ServeOptions PinnedServeOptions() {
  ServeOptions serve;
  serve.max_batch = 16;
  serve.thread_cpu_timer = true;
  serve.max_pending = 0;
  serve.shed_on_overload = true;
  serve.result_cache_bytes = 0;
  serve.slow_query_us = -1;
  serve.slow_query_log_path.clear();
  return serve;
}

}  // namespace

extern Clock::time_point g_process_start;

void RunHotZipfTcp(const Args& args, Outcome& outcome) {
  ServeOptions serve = PinnedServeOptions();
  serve.max_pending = kHotMaxPending;
  serve.result_cache_bytes = kHotResultCacheBytes;
  ReplicationOptions replication;
  replication.budget_bytes = kHotReplicateBytes;

  ServingStack stack;
  std::vector<double> setups, build_s;
  RepeatSetup(
      kServingSetups,
      [&] {
        return MakeServingStack(StoreOptions(StorageBackend::kMemoryOwned),
                                replication, TransportBackend::kTcp, serve);
      },
      stack, g_process_start, setups, build_s);
  QueryServer& server = *stack.server;

  // Every request of the run, generated before anything is timed. Each
  // ladder rate gets kLadderAttempts streams (a missed step is rerun).
  std::vector<size_t> degrees(stack.graph->num_nodes());
  for (NodeId u = 0; u < degrees.size(); ++u) degrees[u] = stack.graph->out_degree(u);
  const ZipfSampler zipf(degrees, 1.0);
  const std::vector<Request> warmup = GenerateHotRequests(
      zipf, static_cast<size_t>(kHotReferenceQps * kWarmupSeconds),
      SubSeed(args.seed, 0));
  const std::vector<Request> reference = GenerateHotRequests(
      zipf, static_cast<size_t>(kHotReferenceQps * args.seconds),
      SubSeed(args.seed, 1));
  std::vector<Request> saturation;
  std::vector<std::vector<Request>> ladder;
  if (!args.trace) {
    saturation = GenerateHotRequests(zipf, kSaturationPool, SubSeed(args.seed, 2));
    for (size_t k = 0; k < kLadderAttempts * std::size(kLadderQps); ++k) {
      ladder.push_back(
          GenerateHotRequests(zipf, kLadderArrivals, SubSeed(args.seed, 10 + k)));
    }
  }

  const IssueFn issue = [&](const Request& r, Served& s) {
    return IssueToServer(server, r, s);
  };
  Workers workers(GeneratorThreads());
  const std::vector<Served> warm =
      OpenLoop(workers, warmup, kHotReferenceQps, issue, false);

  // Reference window: --seconds at the reference rate.
  RegistryWindow window(stack.server_id);
  server.ResetStats();
  const StorageStats storage_before = server.engine().index().StorageStatsTotal();
  const std::vector<Served> ref =
      OpenLoop(workers, reference, kHotReferenceQps, issue, args.trace);
  const ServerStats stats = server.Stats();
  const StorageStats storage =
      server.engine().index().StorageStatsTotal().Since(storage_before);

  // Saturation window (untraced runs only): closed loop from every
  // generator thread. The admission bound equals their count, so nothing is
  // shed.
  std::vector<Served> saturated;
  double saturation_s = 0.0;
  if (!saturation.empty()) {
    std::tie(saturated, saturation_s) =
        ClosedLoop(workers, saturation, kSaturationSeconds, issue, false);
    if (saturated.size() == saturation.size()) {
      outcome.notes.push_back("saturation pool exhausted before the window ended");
      ++outcome.errors;
    }
  }

  // Rate ladder (untraced runs only), starting steps for at most
  // kLadderSeconds: the reference rate first (the reference window is its
  // first attempt), then fixed rates upward until the server stops keeping up.
  std::vector<RateStep> steps;
  std::vector<std::pair<const std::vector<Request>*, std::vector<Served>>> ladder_runs;
  const Clock::time_point ladder_start = Clock::now();
  for (size_t k = 0; !ladder.empty() && k < std::size(kLadderQps); ++k) {
    for (size_t attempt = 0; attempt < kLadderAttempts; ++attempt) {
      RateStep step;
      if (k == 0 && attempt == 0) {
        step = ToRateStep(kHotReferenceQps, reference, ref);
      } else {
        if (SecondsSince(ladder_start) > kLadderSeconds) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const std::vector<Request>& requests = ladder[kLadderAttempts * k + attempt];
        ladder_runs.emplace_back(
            &requests, OpenLoop(workers, requests, kLadderQps[k], issue, false));
        step = ToRateStep(kLadderQps[k], requests, ladder_runs.back().second);
      }
      outcome.notes.push_back(StepNote(step, attempt));
      const bool sustained = StepSustained(step);
      if (attempt == 0) {
        steps.push_back(std::move(step));
      } else {
        steps.back() = std::move(step);
      }
      if (sustained) break;
    }
    if (!StepSustained(steps.back()) || SecondsSince(ladder_start) > kLadderSeconds) {
      break;
    }
  }
  const double sustained_qps = SelectSustainedQps(steps);
  const double slo_qps = SelectSloQps(steps);
  outcome.end_to_end.Set("peak_rss_mb", PeakRssMb(), "MB");

  // Attempted / failed are counted over the reference and saturation
  // windows. The ladder exists to overload the server, so its steps are
  // probes, reported in the notes (and verified) but not counted as the
  // workload's operations.
  for (const std::vector<Served>* served :
       std::initializer_list<const std::vector<Served>*>{&ref, &saturated}) {
    for (const Served& s : *served) {
      ++outcome.attempted;
      outcome.shed += s.shed ? 1 : 0;
    }
  }

  const std::vector<double> latencies = ReadLatencies(reference, ref);
  double late_max = 0.0;
  for (const Served& s : ref) late_max = std::max(late_max, s.late_ms);
  uint64_t round_reads = 0;
  const double comm_kb = CommKbPerQuery(reference, ref, &round_reads);

  MetricTable& e2e = outcome.end_to_end;
  e2e.Set("p50_ms", SlicedP50(latencies).value_or(-1.0), "ms", latencies.size());
  outcome.notes.push_back(LatencyNote(latencies));
  if (!saturated.empty()) {
    std::vector<double> end_s;
    for (const Served& s : saturated) end_s.push_back(s.end_s);
    e2e.Set("qps", SlicedRate(end_s, saturation_s, kRateSliceSeconds).value_or(-1.0),
            "qps", saturated.size());
    char pooled[96];
    std::snprintf(pooled, sizeof(pooled), "saturation: pooled %.1f qps (%zu in %.2f s)",
                  static_cast<double>(saturated.size()) / saturation_s,
                  saturated.size(), saturation_s);
    outcome.notes.push_back(pooled);
  }
  e2e.Set("comm_kb_per_query", comm_kb, "KB", round_reads);
  e2e.Set("build_s", Median(build_s), "s", build_s.size());
  e2e.Set("space_mb", static_cast<double>(stack.build.max_machine_bytes) / 1e6, "MB");
  e2e.Set("setup_s", Median(setups), "s", setups.size());
  char line[128];
  std::snprintf(line, sizeof(line),
                "sustained_qps %.0f (no shedding, no backlog); slo_qps %.0f (also p99 <= %.0f ms)",
                sustained_qps, slo_qps, kSloP99Ms);
  outcome.notes.push_back(line);

  MetricTable& layer = outcome.per_layer;
  if (args.trace) {
    ServeLayerMetrics(window, stats, layer);
    NetStoreLayerMetrics(window, storage, stats.routing_machine_rounds, round_reads,
                         layer);
    uint64_t shed = 0, invalidations = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
      shed += ref[i].shed ? 1 : 0;
      invalidations += reference[i].kind == RequestKind::kInvalidate ? 1 : 0;
    }
    layer.Set("serve.shed_ratio",
              static_cast<double>(shed) / static_cast<double>(ref.size()), "ratio");
    layer.Set("serve.invalidations", static_cast<double>(invalidations), "count");
    BuildLayerMetrics(stack.build, layer);
    TraceOverhead(reference, ref, layer);
    layer.Set("gen.late_ms.max", late_max, "ms", ref.size());
    const std::vector<ReplaySample> samples = PickReplaySamples(reference, ref, 2400);
    ReplayLayers(server.engine(), TransportBackend::kTcp, samples,
                 BatchSizes(window.BatchSizes(), 64), layer);
  }

  // Correctness gate: warm-up, reference, saturation and ladder answers.
  Oracle oracle(*stack.graph, server.engine().index().hierarchy());
  outcome.wrong += VerifyServed(oracle, warmup, warm, outcome.notes);
  outcome.wrong += VerifyServed(oracle, reference, ref, outcome.notes);
  outcome.wrong += VerifyServed(oracle, saturation, saturated, outcome.notes);
  for (const auto& [requests, served] : ladder_runs) {
    outcome.wrong += VerifyServed(oracle, *requests, served, outcome.notes);
  }
  outcome.wrong += oracle.CheckPowerIteration(outcome.notes);
}

void RunColdUniformDisk(const Args& args, Outcome& outcome) {
  const ServeOptions serve = PinnedServeOptions();
  StorageOptions storage_options = StoreOptions(StorageBackend::kDisk);
  storage_options.cache_bytes = kColdCacheBytes;
  storage_options.spill_dir = args.work_dir;
  storage_options.spill_path.clear();

  ServingStack stack;
  std::vector<double> setups, build_s;
  RepeatSetup(
      kServingSetups,
      [&] {
        return MakeServingStack(storage_options, ReplicationOptions{},
                                TransportBackend::kInProcess, serve);
      },
      stack, g_process_start, setups, build_s);
  QueryServer& server = *stack.server;

  const size_t n = stack.graph->num_nodes();
  const double window_seconds = args.seconds;
  const std::vector<Request> warmup =
      GenerateUniformQueries(n, kColdWarmupQueries, SubSeed(args.seed, 0));
  const std::vector<Request> measured = GenerateUniformQueries(
      n, static_cast<size_t>(window_seconds * 1000.0) + 1000, SubSeed(args.seed, 1));

  const IssueFn issue = [&](const Request& r, Served& s) {
    return IssueToServer(server, r, s);
  };
  Workers workers(kColdClients);
  auto [warm, warm_seconds] = ClosedLoop(workers, warmup, 1e9, issue, false);
  (void)warm_seconds;

  RegistryWindow window(stack.server_id);
  server.ResetStats();
  const StorageStats storage_before = server.engine().index().StorageStatsTotal();
  auto [served, elapsed] =
      ClosedLoop(workers, measured, window_seconds, issue, args.trace);
  const ServerStats stats = server.Stats();
  const StorageStats storage =
      server.engine().index().StorageStatsTotal().Since(storage_before);
  outcome.end_to_end.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (served.size() == measured.size()) {
    outcome.notes.push_back("request pool exhausted before the window ended");
    ++outcome.errors;
  }

  for (const Served& s : served) {
    ++outcome.attempted;
    outcome.shed += s.shed ? 1 : 0;
  }
  const std::vector<double> latencies = ReadLatencies(measured, served);
  uint64_t round_reads = 0;
  MetricTable& e2e = outcome.end_to_end;
  e2e.SetPercentile("p50_ms", latencies, 0.5, "ms");
  outcome.notes.push_back(LatencyNote(latencies));
  e2e.Set("qps", static_cast<double>(served.size()) / elapsed, "qps", served.size());
  e2e.Set("comm_kb_per_query", CommKbPerQuery(measured, served, &round_reads), "KB",
          round_reads);
  e2e.Set("build_s", Median(build_s), "s", build_s.size());
  e2e.Set("space_mb", static_cast<double>(stack.build.max_machine_bytes) / 1e6, "MB");
  e2e.Set("setup_s", Median(setups), "s", setups.size());

  MetricTable& layer = outcome.per_layer;
  if (args.trace) {
    ServeLayerMetrics(window, stats, layer);
    NetStoreLayerMetrics(window, storage, stats.routing_machine_rounds, round_reads,
                         layer);
    uint64_t shed = 0;
    for (const Served& s : served) shed += s.shed ? 1 : 0;
    layer.Set("serve.shed_ratio",
              static_cast<double>(shed) / std::max<double>(1.0, served.size()),
              "ratio");
    BuildLayerMetrics(stack.build, layer);
    TraceOverhead(measured, served, layer);
    const std::vector<ReplaySample> samples = PickReplaySamples(measured, served, 40);
    ReplayLayers(server.engine(), TransportBackend::kInProcess, samples,
                 BatchSizes(window.BatchSizes(), 16), layer);
  }

  Oracle oracle(*stack.graph, server.engine().index().hierarchy());
  outcome.wrong += VerifyServed(oracle, warmup, warm, outcome.notes);
  outcome.wrong += VerifyServed(oracle, measured, served, outcome.notes);
  outcome.wrong += oracle.CheckPowerIteration(outcome.notes);
}

}  // namespace perfbench
