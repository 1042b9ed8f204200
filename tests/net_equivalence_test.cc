// Acceptance suite for the transport subsystem: the full offline
// precomputation and the whole query surface (single-node, preference-set,
// top-k; GPA and HGPA) must be bit-identical whether the cluster's payloads
// move through the in-process hand-off or real localhost TCP sockets — same
// vectors, same byte ledgers, same answers. The transport may only change
// where bytes travel, never what they say.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dppr/core/dist_precompute.h"
#include "dppr/core/hgpa.h"
#include "dppr/serve/query_server.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;

HgpaOptions SmallOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 3;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

TransportOptions Backend(TransportBackend backend) {
  TransportOptions options;
  options.backend = backend;
  return options;
}

DistributedPrecompute::Result RunOffline(const Graph& g, const Hierarchy& h,
                                         const HgpaOptions& options,
                                         TransportBackend backend,
                                         size_t machines) {
  DistPrecomputeOptions dist;
  dist.num_machines = machines;
  dist.transport = Backend(backend);
  return DistributedPrecompute::Run(g, h, options, dist);
}

DistributedPrecompute::Result RunOfflineOn(const Graph& g, const Hierarchy& h,
                                           const HgpaOptions& options,
                                           TransportBackend backend,
                                           StorageBackend storage,
                                           size_t machines) {
  DistPrecomputeOptions dist;
  dist.num_machines = machines;
  dist.transport = Backend(backend);
  dist.storage = StorageOptions{};
  dist.storage.backend = storage;
  return DistributedPrecompute::Run(g, h, options, dist);
}

using StoreOf = std::function<const PpvStore&(size_t)>;

// Every stored vector of `b` must equal its `a` counterpart bit for bit. The
// walk mirrors the placement plan: hubs' skeleton columns and partial vectors
// on the machine owning the hub, own vectors on the machine owning the node.
void ExpectStoresIdentical(const Hierarchy& h, const PlacementPlan& plan,
                           const StoreOf& a, const StoreOf& b) {
  auto expect_same = [&](VectorKind kind, SubgraphId sub, NodeId node,
                         size_t machine) {
    PpvRef va = a(machine).Find(kind, sub, node);
    PpvRef vb = b(machine).Find(kind, sub, node);
    ASSERT_TRUE(va);
    ASSERT_TRUE(vb);
    EXPECT_EQ(*va, *vb) << "kind " << static_cast<int>(kind) << " sub " << sub
                        << " node " << node;
  };
  for (const auto& sub : h.subgraphs()) {
    for (NodeId hub : sub.hubs) {
      size_t machine = plan.own_machine[hub];
      expect_same(VectorKind::kSkeletonColumn, sub.id, hub, machine);
      expect_same(VectorKind::kHubPartial, sub.id, hub, machine);
    }
  }
  for (SubgraphId leaf : h.leaves()) {
    for (NodeId u : h.subgraph(leaf).nodes) {
      if (h.is_hub(u)) continue;  // hubs' own vectors are their partials
      expect_same(VectorKind::kOwnVector, leaf, u, plan.own_machine[u]);
    }
  }
}

void ExpectStoresIdentical(const DistributedPrecompute::Result& inproc,
                           const DistributedPrecompute::Result& tcp) {
  ASSERT_EQ(inproc.num_machines(), tcp.num_machines());
  ExpectStoresIdentical(
      *inproc.hierarchy, *inproc.plan,
      [&](size_t m) -> const PpvStore& { return inproc.stores[m]; },
      [&](size_t m) -> const PpvStore& { return tcp.stores[m]; });
}

// Locality-vs-centralized comparison: the offline run and the centralized
// oracle take different routes to their stores, but every stored vector and
// every per-machine footprint must agree.
void ExpectIndexesIdentical(const HgpaIndex& centralized,
                            const HgpaIndex& locality) {
  ASSERT_EQ(centralized.num_machines(), locality.num_machines());
  EXPECT_EQ(centralized.BytesPerMachine(), locality.BytesPerMachine());
  EXPECT_EQ(centralized.MaxMachineBytes(), locality.MaxMachineBytes());
  for (size_t m = 0; m < centralized.num_machines(); ++m) {
    EXPECT_EQ(centralized.store(m).num_vectors(),
              locality.store(m).num_vectors())
        << "machine " << m;
  }
  ExpectStoresIdentical(
      centralized.hierarchy(), *centralized.shared_plan(),
      [&](size_t m) -> const PpvStore& { return centralized.store(m); },
      [&](size_t m) -> const PpvStore& { return locality.store(m); });
}

void ExpectOfflineLedgersIdentical(const DistributedPrecompute::Result& inproc,
                                   const DistributedPrecompute::Result& tcp) {
  // The paper's offline metrics — rounds, coordinator ingress, per-machine
  // space — are payload-derived and must not see the backend at all.
  EXPECT_EQ(inproc.offline.rounds, tcp.offline.rounds);
  EXPECT_EQ(inproc.offline.comm.messages, tcp.offline.comm.messages);
  EXPECT_EQ(inproc.offline.comm.bytes, tcp.offline.comm.bytes);
  EXPECT_EQ(inproc.TotalBytes(), tcp.TotalBytes());
  EXPECT_EQ(inproc.MaxMachineBytes(), tcp.MaxMachineBytes());
  for (size_t m = 0; m < inproc.num_machines(); ++m) {
    EXPECT_EQ(inproc.stores[m].TotalSerializedBytes(),
              tcp.stores[m].TotalSerializedBytes())
        << "machine " << m;
    EXPECT_EQ(inproc.stores[m].num_vectors(), tcp.stores[m].num_vectors())
        << "machine " << m;
  }
}

// Bit-equality of the query surface, including each query's fragment-level
// byte accounting.
void ExpectQuerySurfaceIdentical(const Graph& g, const HgpaQueryEngine& inproc,
                                 const HgpaQueryEngine& tcp) {
  for (NodeId q = 0; q < g.num_nodes(); q += 5) {
    QueryMetrics im, tm;
    EXPECT_EQ(inproc.Query(q, &im), tcp.Query(q, &tm)) << "query " << q;
    EXPECT_EQ(im.comm.bytes, tm.comm.bytes) << "query " << q;
    EXPECT_EQ(im.comm.messages, tm.comm.messages) << "query " << q;
  }
  std::vector<HgpaQueryEngine::Preference> prefs{
      {0, 0.5}, {static_cast<NodeId>(g.num_nodes() / 2), 0.3}, {7, 0.2}};
  EXPECT_EQ(inproc.QueryPreferenceSet(prefs), tcp.QueryPreferenceSet(prefs));
}

TEST(NetEquivalence, HgpaOfflineAndQueriesMatchOverTcp) {
  Graph g = RandomDigraph(110, 3.0, 13);
  HgpaOptions options = SmallOptions();
  Hierarchy h = Hierarchy::Build(g, options.hierarchy);

  auto inproc_result =
      RunOffline(g, h, options, TransportBackend::kInProcess, 4);
  auto tcp_result = RunOffline(g, h, options, TransportBackend::kTcp, 4);
  ExpectOfflineLedgersIdentical(inproc_result, tcp_result);
  ExpectStoresIdentical(inproc_result, tcp_result);

  HgpaQueryEngine inproc(HgpaIndex::FromDistributed(std::move(inproc_result)),
                         NetworkModel{}, Backend(TransportBackend::kInProcess));
  HgpaQueryEngine tcp(HgpaIndex::FromDistributed(std::move(tcp_result)),
                      NetworkModel{}, Backend(TransportBackend::kTcp));
  ExpectQuerySurfaceIdentical(g, inproc, tcp);
}

TEST(NetEquivalence, GpaOfflineAndQueriesMatchOverTcp) {
  Graph g = RandomDigraph(90, 3.0, 29);
  HgpaOptions options = SmallOptions();
  Hierarchy flat = Hierarchy::BuildFlat(g, 4, options.hierarchy.partition);

  auto inproc_result =
      RunOffline(g, flat, options, TransportBackend::kInProcess, 3);
  auto tcp_result = RunOffline(g, flat, options, TransportBackend::kTcp, 3);
  ExpectOfflineLedgersIdentical(inproc_result, tcp_result);
  ExpectStoresIdentical(inproc_result, tcp_result);

  HgpaQueryEngine inproc(HgpaIndex::FromDistributed(std::move(inproc_result)),
                         NetworkModel{}, Backend(TransportBackend::kInProcess));
  HgpaQueryEngine tcp(HgpaIndex::FromDistributed(std::move(tcp_result)),
                      NetworkModel{}, Backend(TransportBackend::kTcp));
  ExpectQuerySurfaceIdentical(g, inproc, tcp);
}

TEST(NetEquivalence, SequentialAndParallelTcpOfflineAgree) {
  // Sequential mode (deterministic scheduling) and the ThreadPool path must
  // ship the same bytes over sockets — payload content never depends on
  // which worker ran first.
  Graph g = RandomDigraph(70, 3.0, 57);
  HgpaOptions options = SmallOptions();
  Hierarchy h = Hierarchy::Build(g, options.hierarchy);

  DistPrecomputeOptions sequential;
  sequential.num_machines = 3;
  sequential.sequential = true;
  sequential.transport = Backend(TransportBackend::kTcp);
  DistPrecomputeOptions parallel = sequential;
  parallel.sequential = false;

  auto a = DistributedPrecompute::Run(g, h, options, sequential);
  auto b = DistributedPrecompute::Run(g, h, options, parallel);
  ExpectOfflineLedgersIdentical(a, b);
  ExpectStoresIdentical(a, b);
}

// The offline acceptance matrix: the locality shuffle, crossed with both
// transports and both storage backends, must reproduce the centralized
// oracle (HgpaPrecomputation distributed by HgpaIndex::Distribute onto the
// same backend) — bit-identical stores and query answers. The shuffle may
// only change who computes and which link a record crosses, never its bytes.
void ExpectLocalityMatchesCentralized(const Graph& g, const Hierarchy& h,
                                      const HgpaOptions& options,
                                      size_t machines) {
  auto pre = HgpaPrecomputation::Run(g, Hierarchy(h), options);
  for (TransportBackend transport :
       {TransportBackend::kInProcess, TransportBackend::kTcp}) {
    for (StorageBackend storage :
         {StorageBackend::kMemoryOwned, StorageBackend::kDisk}) {
      SCOPED_TRACE(std::string(TransportBackendName(transport)) + "/" +
                   StorageBackendName(storage));
      StorageOptions storage_options;
      storage_options.backend = storage;
      HgpaIndex centralized =
          HgpaIndex::Distribute(pre, machines, storage_options);
      DistributedPrecompute::Result result =
          RunOfflineOn(g, h, options, transport, storage, machines);
      EXPECT_GT(result.offline.exchange_rounds, 0u);
      HgpaIndex locality = HgpaIndex::FromDistributed(std::move(result));
      ExpectIndexesIdentical(centralized, locality);

      HgpaQueryEngine centralized_engine(std::move(centralized), NetworkModel{},
                                         Backend(transport));
      HgpaQueryEngine locality_engine(std::move(locality), NetworkModel{},
                                      Backend(transport));
      ExpectQuerySurfaceIdentical(g, centralized_engine, locality_engine);
    }
  }
}

TEST(NetEquivalence, LocalityShuffleMatchesCentralizedAcrossTransportsAndStores) {
  Graph g = RandomDigraph(100, 3.0, 67);
  HgpaOptions options = SmallOptions();
  ExpectLocalityMatchesCentralized(g, Hierarchy::Build(g, options.hierarchy),
                                   options, 4);
}

TEST(NetEquivalence, GpaLocalityShuffleMatchesCentralizedAcrossTransportsAndStores) {
  Graph g = RandomDigraph(80, 3.0, 71);
  HgpaOptions options = SmallOptions();
  ExpectLocalityMatchesCentralized(
      g, Hierarchy::BuildFlat(g, 4, options.hierarchy.partition), options, 3);
}

TEST(NetEquivalence, LocalityShuffledBytesIdenticalAcrossBackends) {
  // The shuffle ledger column is payload-derived like the gather one: the
  // same bytes must be reported whether the exchange rode the in-process
  // mailbox or TCP sockets, sequential or parallel.
  Graph g = RandomDigraph(90, 3.0, 83);
  HgpaOptions options = SmallOptions();
  Hierarchy h = Hierarchy::Build(g, options.hierarchy);

  std::vector<DistributedPrecompute::Result> runs;
  for (TransportBackend transport :
       {TransportBackend::kInProcess, TransportBackend::kTcp}) {
    for (bool sequential : {false, true}) {
      DistPrecomputeOptions dist;
      dist.num_machines = 4;
      dist.sequential = sequential;
      dist.transport = Backend(transport);
      runs.push_back(DistributedPrecompute::Run(g, h, options, dist));
    }
  }
  const auto& first = runs.front();
  EXPECT_GT(first.offline.shuffled.bytes, 0u);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].offline.shuffled.bytes, first.offline.shuffled.bytes);
    EXPECT_EQ(runs[i].offline.shuffled.messages,
              first.offline.shuffled.messages);
    EXPECT_EQ(runs[i].offline.rounds, first.offline.rounds);
    EXPECT_EQ(runs[i].offline.exchange_rounds, first.offline.exchange_rounds);
    ASSERT_EQ(runs[i].levels.size(), first.levels.size());
    for (size_t l = 0; l < first.levels.size(); ++l) {
      EXPECT_EQ(runs[i].levels[l].shuffled_bytes, first.levels[l].shuffled_bytes);
      EXPECT_EQ(runs[i].levels[l].local_bytes, first.levels[l].local_bytes);
      EXPECT_EQ(runs[i].levels[l].induces, first.levels[l].induces);
    }
  }
}

TEST(NetEquivalence, ServedTopKAndStatsMatchOverTcp) {
  Graph g = RandomDigraph(100, 3.0, 41);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  QueryServer inproc_server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 3), NetworkModel{},
                      Backend(TransportBackend::kInProcess)));
  QueryServer tcp_server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 3), NetworkModel{},
                      Backend(TransportBackend::kTcp)));

  for (NodeId q = 0; q < g.num_nodes(); q += 11) {
    QueryServer::TopKResponse a = inproc_server.QueryTopK(q, 10);
    QueryServer::TopKResponse b = tcp_server.QueryTopK(q, 10);
    ASSERT_EQ(a.top.size(), b.top.size()) << "query " << q;
    for (size_t i = 0; i < a.top.size(); ++i) {
      EXPECT_EQ(a.top[i].index, b.top[i].index) << "query " << q << " rank " << i;
      EXPECT_EQ(a.top[i].value, b.top[i].value) << "query " << q << " rank " << i;
    }
  }

  // The servers ran the same requests, so the coordinator byte ledger must
  // agree exactly across backends.
  ServerStats a = inproc_server.Stats();
  ServerStats b = tcp_server.Stats();
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.comm.bytes, b.comm.bytes);
  EXPECT_EQ(a.comm.messages, b.comm.messages);
}

}  // namespace
}  // namespace dppr
