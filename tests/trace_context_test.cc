// End-to-end query attribution: TraceContext propagation from the serving
// front door through SimCluster machine tasks (and, over TCP, through frame
// headers on real sockets) to machine-lane trace spans; QueryProfile
// assembly and its bit-for-bit reconciliation against the registry counters;
// the slow-query JSONL log; and the signal-flush path.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dppr/core/hgpa.h"
#include "dppr/net/frame.h"
#include "dppr/net/transport.h"
#include "dppr/obs/flush.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"
#include "dppr/serve/query_server.h"
#include "json_util.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::JsonParser;
using ::dppr::testing::JsonValue;
using ::dppr::testing::RandomDigraph;

// ---------------------------------------------------------------------------
// TraceContext plumbing
// ---------------------------------------------------------------------------

TEST(TraceContext, ScopeEstablishesAndRestores) {
  EXPECT_FALSE(obs::CurrentTraceContext());
  {
    obs::TraceContextScope outer({11, 12});
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, 11u);
    EXPECT_EQ(obs::CurrentTraceContext().span_id, 12u);
    {
      obs::TraceContextScope inner({21, 22});
      EXPECT_EQ(obs::CurrentTraceContext().trace_id, 21u);
    }
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, 11u);
  }
  EXPECT_FALSE(obs::CurrentTraceContext());
}

TEST(TraceContext, NewTraceIdIsUniqueAndNonzero) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    uint64_t id = obs::NewTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate trace id " << id;
  }
}

TEST(TraceContext, SpansCaptureAndRenderTheContext) {
  obs::Tracer tracer(/*enabled=*/true);
  {
    obs::TraceContextScope scope({777, 1});
    obs::TraceSpan span(tracer, obs::MachineLane(0), "traced_work");
  }
  {
    obs::TraceSpan span(tracer, obs::MachineLane(1), "untraced_work");
  }
  JsonValue doc = JsonParser(tracer.RenderJson()).Parse();
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "X") continue;
    if (e.at("name").str == "traced_work") {
      EXPECT_EQ(e.at("args").at("trace").number, 777.0);
    } else {
      // No context in scope -> no trace arg at all (0 is never rendered).
      EXPECT_EQ(e.object.count("args"), 0u);
    }
  }
}

TEST(FrameHeader, CarriesTheSendingThreadsContext) {
  std::vector<uint8_t> payload = {1, 2, 3};
  FrameHeader untraced = MakeFrameHeader(FrameKind::kGather, 5, 1,
                                         kCoordinatorDst, payload);
  EXPECT_EQ(untraced.trace_id, 0u);
  EXPECT_EQ(untraced.span_id, 0u);

  obs::TraceContextScope scope({0xABCDEF12u, 0x34567u});
  FrameHeader header = MakeFrameHeader(FrameKind::kExchange, 9, 2, 3, payload);
  EXPECT_EQ(header.trace_id, 0xABCDEF12u);
  EXPECT_EQ(header.span_id, 0x34567u);

  // The ids survive the wire encoding, and the layout self-check holds.
  std::vector<uint8_t> buf(kFrameHeaderBytes);
  EncodeFrameHeader(header, buf);
  FrameHeader decoded = DecodeFrameHeader(buf);
  EXPECT_EQ(decoded.trace_id, header.trace_id);
  EXPECT_EQ(decoded.span_id, header.span_id);
  EXPECT_EQ(decoded.round, header.round);
  EXPECT_EQ(decoded.payload_bytes, header.payload_bytes);
  EXPECT_EQ(decoded.checksum, header.checksum);

  std::vector<uint8_t> frame = BuildFrame(FrameKind::kGather, 7, 0,
                                          kCoordinatorDst, payload);
  EXPECT_EQ(DecodeFrameHeader(frame).trace_id, 0xABCDEF12u);
}

// ---------------------------------------------------------------------------
// Served-query propagation: spans on exactly the routed machines
// ---------------------------------------------------------------------------

HgpaOptions SmallOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 4;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

/// Runs one served query under the (test-enabled) global tracer and asserts
/// every machine-lane span tagged with the query's trace id sits on exactly
/// the machines the router selected for it.
void ExpectSpansOnExactlyTheRoutedMachines(TransportBackend backend) {
  Graph graph = RandomDigraph(80, 3.0, 17);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  TransportOptions transport;
  transport.backend = backend;
  QueryServer server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 4), NetworkModel{}, transport,
                      RoutingOptions{RoutingMode::kRoute}),
      ServeOptions{});
  ASSERT_NE(server.engine().router(), nullptr);

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.set_enabled(true);
  QueryServer::Response response = server.Query(13);
  tracer.set_enabled(false);
  ASSERT_NE(response.trace_id, 0u);
  ASSERT_FALSE(response.ppv.entries().empty());

  const NodeId source = 13;
  QueryRouter::Plan plan = server.engine().router()->Route({&source, 1});
  ASSERT_FALSE(plan.machines.empty());
  EXPECT_EQ(response.metrics.machines, plan.machines);

  std::set<uint32_t> expected_lanes;
  for (size_t m : plan.machines) expected_lanes.insert(obs::MachineLane(m));

  // The global tracer accumulates events across tests; our freshly minted
  // trace id isolates exactly this query's spans.
  JsonValue doc = JsonParser(tracer.RenderJson()).Parse();
  std::set<uint32_t> machine_lanes_with_our_trace;
  std::set<uint32_t> lanes_with_machine_span;
  bool saw_request_span = false;
  bool saw_reduce_span = false;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "X") continue;
    if (e.object.count("args") == 0 || e.at("args").object.count("trace") == 0)
      continue;
    if (e.at("args").at("trace").number !=
        static_cast<double>(response.trace_id))
      continue;
    const uint32_t pid = static_cast<uint32_t>(e.at("pid").number);
    if (pid != obs::kCoordinatorLane) {
      machine_lanes_with_our_trace.insert(pid);
      if (e.at("name").str == "cluster.machine") {
        lanes_with_machine_span.insert(pid);
      }
    } else if (e.at("name").str == "serve.request") {
      saw_request_span = true;
    } else if (e.at("name").str == "cluster.reduce") {
      saw_reduce_span = true;
    }
  }
  EXPECT_TRUE(saw_request_span);
  // The coordinator reduce is attributed to the query too.
  EXPECT_TRUE(saw_reduce_span);
  // Every routed machine ran a cluster.machine span under our trace id, and
  // NO machine lane outside the plan carries any span with it (store and
  // net.tcp.send spans included — they inherit the same context).
  EXPECT_EQ(lanes_with_machine_span, expected_lanes);
  EXPECT_EQ(machine_lanes_with_our_trace, expected_lanes)
      << "spans must land on the routed machines, all of them, and no others";
}

TEST(TracePropagation, RoutedQuerySpansInproc) {
  ExpectSpansOnExactlyTheRoutedMachines(TransportBackend::kInProcess);
}

TEST(TracePropagation, RoutedQuerySpansTcp) {
  ExpectSpansOnExactlyTheRoutedMachines(TransportBackend::kTcp);
}

// ---------------------------------------------------------------------------
// Coordinator reduce timing on the serving path
// ---------------------------------------------------------------------------

TEST(CoordinatorReduce, EveryServedRoundRecordsItsReduceSample) {
  Graph graph = RandomDigraph(80, 3.0, 31);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  obs::Histogram* reduce_us =
      obs::MetricsRegistry::Global().GetHistogram("cluster.reduce_us");
  for (RoutingMode mode : {RoutingMode::kRoute, RoutingMode::kBroadcast}) {
    QueryServer server(
        HgpaQueryEngine(HgpaIndex::Distribute(pre, 4), NetworkModel{},
                        TransportOptions::FromEnv(), RoutingOptions{mode}),
        ServeOptions{});
    for (NodeId q = 0; q < graph.num_nodes(); q += 9) {
      const uint64_t count_before = reduce_us->Count();
      const uint64_t sum_before = reduce_us->Sum();
      QueryServer::Response r = server.Query(q);
      ASSERT_FALSE(r.shed);
      // One round per single-threaded query, one reduce sample per round,
      // and the sample is the very value the query reports.
      EXPECT_EQ(reduce_us->Count(), count_before + 1) << "query " << q;
      EXPECT_EQ(reduce_us->Sum() - sum_before,
                static_cast<uint64_t>(r.metrics.coordinator_seconds * 1e6))
          << "query " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// QueryProfile reconciliation against the registry counters
// ---------------------------------------------------------------------------

TEST(QueryProfileReconciliation, TotalsMatchCounterDeltas) {
  Graph graph = RandomDigraph(80, 3.0, 29);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  QueryServer server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 4), NetworkModel{},
                      TransportOptions{}, RoutingOptions{RoutingMode::kRoute}),
      ServeOptions{});
  server.ResetStats();

  constexpr size_t kQueries = 12;
  std::vector<uint64_t> trace_ids;
  for (NodeId q = 0; q < kQueries; ++q) {
    QueryServer::Response r = server.Query(q);
    ASSERT_FALSE(r.shed);
    trace_ids.push_back(r.trace_id);
  }

  std::vector<QueryProfile> profiles = server.RecentProfiles();
  ASSERT_EQ(profiles.size(), kQueries);

  // Single-threaded serving: every query was its own round and its own
  // profile; RecentProfiles is newest-first.
  CommStats fragment_total, round_total;
  uint64_t machine_rounds = 0;
  uint64_t bytes_saved = 0;
  StorageStats storage_total;
  std::set<uint64_t> round_ids;
  for (size_t i = 0; i < kQueries; ++i) {
    const QueryProfile& p = profiles[kQueries - 1 - i];
    EXPECT_EQ(p.trace_id, trace_ids[i]);
    EXPECT_EQ(p.outcome, QueryProfile::Outcome::kServed);
    EXPECT_EQ(p.source, static_cast<NodeId>(i));
    EXPECT_EQ(p.batch_size, 1u);
    // Transport rounds are allocated from 0, so round_id itself can be 0 on
    // a fresh transport; what must hold is one distinct round per query.
    round_ids.insert(p.round_id);
    EXPECT_EQ(p.machines.size(), p.machines_contacted);
    // Unbatched: the query's own fragments ARE the round payloads.
    EXPECT_EQ(p.fragment_comm.bytes, p.round_comm.bytes);
    EXPECT_EQ(p.fragment_comm.messages, p.round_comm.messages);
    EXPECT_EQ(p.fragment_comm.messages, p.machines_contacted);
    // machine_seconds is full cluster width; non-participants are zero.
    EXPECT_EQ(p.machine_seconds.size(), 4u);
    for (size_t m = 0; m < p.machine_seconds.size(); ++m) {
      const bool participant =
          std::find(p.machines.begin(), p.machines.end(), m) !=
          p.machines.end();
      if (!participant) EXPECT_EQ(p.machine_seconds[m], 0.0);
      EXPECT_LE(p.machine_seconds[m], p.max_machine_seconds);
    }
    fragment_total += p.fragment_comm;
    round_total += p.round_comm;
    machine_rounds += p.machines_contacted;
    bytes_saved += p.routing_bytes_saved;
    storage_total += p.storage;
  }

  // The reconciliation: profile sums equal the registry/window deltas
  // exactly. Profiles are attributions of the same ledgers, never a second
  // measurement, so this holds bit-for-bit.
  ServerStats stats = server.Stats();
  EXPECT_EQ(round_ids.size(), kQueries);
  EXPECT_EQ(stats.queries, kQueries);
  EXPECT_EQ(stats.rounds, kQueries);
  EXPECT_EQ(round_total.bytes, stats.comm.bytes);
  EXPECT_EQ(round_total.messages, stats.comm.messages);
  EXPECT_EQ(fragment_total.bytes, stats.comm.bytes);
  EXPECT_EQ(machine_rounds, stats.routing_machine_rounds);
  EXPECT_EQ(bytes_saved, stats.routing_bytes_saved);
  EXPECT_EQ(storage_total.cache_hits, stats.cache_hits);
  EXPECT_EQ(storage_total.cache_misses, stats.cache_misses);
  EXPECT_EQ(storage_total.disk_bytes_read, stats.disk_bytes_read);
}

TEST(QueryProfileReconciliation, BatchFragmentsSumToTheRound) {
  // Two queries forced into one round via a preference-set pair submitted by
  // one thread is not possible through the public API (batching needs
  // concurrency), so check the batched invariant at the engine level:
  // Σ per-query fragment bytes == round payload bytes.
  Graph graph = RandomDigraph(60, 3.0, 7);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  HgpaQueryEngine engine(HgpaIndex::Distribute(pre, 3), NetworkModel{},
                         TransportOptions{},
                         RoutingOptions{RoutingMode::kRoute});
  std::vector<std::vector<HgpaQueryEngine::Preference>> queries;
  for (NodeId q = 0; q < 6; ++q) queries.push_back({{q, 1.0}});
  std::vector<QueryMetrics> per_query;
  QueryMetrics round;
  engine.QueryPreferenceSetMany(queries, &per_query, &round);
  ASSERT_EQ(per_query.size(), queries.size());
  CommStats fragments;
  for (const QueryMetrics& m : per_query) {
    fragments += m.comm;
    EXPECT_EQ(m.round_id, round.round_id);
  }
  EXPECT_EQ(fragments.bytes, round.comm.bytes);
}

// ---------------------------------------------------------------------------
// Slow-query JSONL log
// ---------------------------------------------------------------------------

TEST(SlowQueryLog, WritesParseableJsonlWithTheProfileSchema) {
  Graph graph = RandomDigraph(60, 3.0, 11);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  const std::string path =
      ::testing::TempDir() + "/dppr_slow_query_test.jsonl";
  std::remove(path.c_str());

  ServeOptions options;
  options.slow_query_us = 0;  // log every request
  options.slow_query_log_path = path;
  QueryServer server(HgpaQueryEngine(HgpaIndex::Distribute(pre, 3)),
                     std::move(options));

  std::vector<uint64_t> trace_ids;
  for (NodeId q = 0; q < 3; ++q) {
    trace_ids.push_back(server.Query(q).trace_id);
  }
  EXPECT_EQ(server.RecentSlowQueries().size(), 3u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    JsonValue doc = JsonParser(line).Parse();
    ASSERT_EQ(doc.kind, JsonValue::kObject);
    EXPECT_EQ(doc.at("trace_id").number,
              static_cast<double>(trace_ids[lines]));
    EXPECT_EQ(doc.at("outcome").str, "served");
    EXPECT_EQ(doc.at("source").number, static_cast<double>(lines));
    EXPECT_EQ(doc.at("batch_size").number, 1.0);
    // Catalog spot-checks: the documented keys are all present.
    for (const char* key :
         {"request_id", "latency_seconds", "wait_seconds", "round_id",
          "machines", "machines_contacted", "fragment_bytes", "round_bytes",
          "routing_bytes_saved", "machine_seconds", "max_machine_seconds",
          "coordinator_seconds", "store_cache_hits", "disk_bytes_read"}) {
      EXPECT_EQ(doc.object.count(key), 1u) << "missing " << key;
    }
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST(SlowQueryLog, ThresholdDisabledKeepsRingsOnly) {
  Graph graph = RandomDigraph(40, 3.0, 13);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  QueryServer server(HgpaQueryEngine(HgpaIndex::Distribute(pre, 2)),
                     ServeOptions{});  // slow_query_us = -1: log disabled
  server.Query(1);
  EXPECT_EQ(server.RecentProfiles().size(), 1u);
  EXPECT_TRUE(server.RecentSlowQueries().empty());
}

// ---------------------------------------------------------------------------
// Tracer drop accounting
// ---------------------------------------------------------------------------

TEST(TracerDrops, OverflowCountsIntoTheRegistry) {
  obs::Counter* dropped = obs::MetricsRegistry::Global().GetCounter(
      "trace.dropped");
  const uint64_t before = dropped->Value();

  obs::Tracer tracer(/*enabled=*/true);
  // Single-threaded: every event lands in the calling thread's shard, so
  // one-over-capacity overflows that shard deterministically.
  constexpr size_t kPerShard = (4u << 20) / 16;
  for (size_t i = 0; i <= kPerShard; ++i) {
    tracer.RecordComplete("spin", 0.0, 1.0, 0, {});
  }
  EXPECT_EQ(tracer.event_count(), kPerShard);
  EXPECT_EQ(tracer.dropped_events(), 1u);
  EXPECT_EQ(dropped->Value(), before + 1);
}

// ---------------------------------------------------------------------------
// Signal flush
// ---------------------------------------------------------------------------

TEST(SignalFlushDeathTest, SigtermStillWritesTheMetricsDump) {
  const std::string path = ::testing::TempDir() + "/dppr_signal_dump.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        setenv("DPPR_METRICS_DUMP", path.c_str(), 1);
        obs::MetricsRegistry::Global().GetCounter("signal.test")->Add(5);
        obs::InstallSignalFlushOnce();
        std::raise(SIGTERM);
      },
      ::testing::KilledBySignal(SIGTERM), "");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "signal handler must have written " << path;
  std::stringstream body;
  body << in.rdbuf();
  JsonValue doc = JsonParser(body.str()).Parse();
  EXPECT_EQ(doc.at("counters").at("signal.test").number, 5.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dppr
