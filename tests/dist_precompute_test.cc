#include "dppr/core/dist_precompute.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dppr/core/hgpa.h"
#include "dppr/graph/datasets.h"
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

// Machine that must hold a centralized item under the shared placement plan.
size_t MachineOf(const PlacementPlan& plan, const HgpaPrecomputation::Item& item) {
  return plan.own_machine[item.node];
}

// Asserts the distributed run reproduced the centralized oracle exactly:
// every item bit-identical, placed on the planned machine and nowhere else,
// with matching byte ledgers.
void ExpectBitIdentical(const HgpaPrecomputation& pre,
                        const DistributedPrecompute::Result& result) {
  size_t stored = 0;
  for (const auto& store : result.stores) stored += store.num_vectors();
  ASSERT_EQ(stored, pre.items().size());

  for (const auto& item : pre.items()) {
    size_t machine = MachineOf(*result.plan, item);
    PpvRef got = result.stores[machine].Find(item.kind, item.sub, item.node);
    ASSERT_TRUE(got)
        << "kind " << static_cast<int>(item.kind) << " sub " << item.sub
        << " node " << item.node << " missing from machine " << machine;
    EXPECT_EQ(*got, item.vec) << "vector differs for node " << item.node;
    for (size_t other = 0; other < result.stores.size(); ++other) {
      if (other == machine) continue;
      EXPECT_FALSE(result.stores[other].Find(item.kind, item.sub, item.node))
          << "node " << item.node << " duplicated on machine " << other;
    }
  }
}

TEST(DistPrecompute, HgpaVectorsBitIdenticalToCentralized) {
  Graph g = RandomDigraph(120, 3.0, 7);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result result = DistributedPrecompute::Run(
      g, pre->hierarchy(), options, dist);  // same hierarchy (copied)
  ExpectBitIdentical(*pre, result);
}

TEST(DistPrecompute, GpaFlatHierarchyBitIdenticalToCentralized) {
  Graph g = RandomDigraph(100, 3.0, 21);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunGpa(g, 4, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 3;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  ExpectBitIdentical(*pre, result);
}

TEST(DistPrecompute, SequentialAndParallelClusterModesAgree) {
  Graph g = RandomDigraph(90, 3.0, 33);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  for (bool sequential : {false, true}) {
    DistPrecomputeOptions dist;
    dist.num_machines = 5;
    dist.sequential = sequential;
    DistributedPrecompute::Result result =
        DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
    ExpectBitIdentical(*pre, result);
  }
}

TEST(DistPrecompute, StorageLedgersMatchLegacyDistribute) {
  Graph g = RandomDigraph(110, 3.0, 55);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  for (size_t machines : {1u, 3u, 6u}) {
    HgpaIndex legacy = HgpaIndex::Distribute(pre, machines);
    DistPrecomputeOptions dist;
    dist.num_machines = machines;
    DistributedPrecompute::Result result =
        DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
    EXPECT_EQ(result.MaxMachineBytes(), legacy.MaxMachineBytes());
    EXPECT_EQ(result.TotalBytes(), legacy.TotalBytes());
    for (size_t m = 0; m < machines; ++m) {
      EXPECT_EQ(result.stores[m].TotalSerializedBytes(),
                legacy.store(m).TotalSerializedBytes())
          << "machine " << m << " of " << machines;
    }
  }
}

TEST(DistPrecompute, QueriesFromOwnedStoresMatchLegacyEngineExactly) {
  // Same placement + bit-identical vectors + same fold order ⇒ the two
  // engines must agree to the last bit, not just within tolerance.
  Graph g = RandomDigraph(100, 3.0, 90);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);

  HgpaQueryEngine legacy(HgpaIndex::Distribute(pre, 4));
  HgpaIndex owned_index = HgpaIndex::FromDistributed(std::move(result));
  EXPECT_TRUE(owned_index.owns_vectors());
  HgpaQueryEngine owned(std::move(owned_index));

  for (NodeId q = 0; q < g.num_nodes(); q += 7) {
    QueryMetrics legacy_metrics;
    QueryMetrics owned_metrics;
    SparseVector a = legacy.Query(q, &legacy_metrics);
    SparseVector b = owned.Query(q, &owned_metrics);
    EXPECT_EQ(a, b) << "query " << q;
    EXPECT_EQ(legacy_metrics.comm.messages, owned_metrics.comm.messages);
    EXPECT_EQ(legacy_metrics.comm.bytes, owned_metrics.comm.bytes);
  }
}

TEST(DistPrecompute, GpaQueriesFromOwnedStoresMatchLegacyEngine) {
  Graph g = RandomDigraph(80, 3.0, 11);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunGpa(g, 4, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 3;
  dist.sequential = true;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  HgpaQueryEngine legacy(HgpaIndex::Distribute(pre, 3));
  HgpaQueryEngine owned(HgpaIndex::FromDistributed(std::move(result)));
  for (NodeId q = 0; q < g.num_nodes(); q += 13) {
    EXPECT_EQ(legacy.Query(q), owned.Query(q)) << "query " << q;
  }
}

// Compares every stored vector of `got` and every ledger it reports against
// `want` (same hierarchy, same machine count).
void ExpectSameOfflineOutput(const DistributedPrecompute::Result& want,
                             const DistributedPrecompute::Result& got) {
  ASSERT_EQ(got.num_machines(), want.num_machines());
  const PlacementPlan& plan = *want.plan;
  auto expect_same = [&](VectorKind kind, SubgraphId sub, NodeId node) {
    const size_t machine = plan.own_machine[node];
    PpvRef a = want.stores[machine].Find(kind, sub, node);
    PpvRef b = got.stores[machine].Find(kind, sub, node);
    ASSERT_TRUE(a && b) << "sub " << sub << " node " << node;
    EXPECT_EQ(*b, *a) << "kind " << static_cast<int>(kind) << " sub " << sub
                      << " node " << node;
  };
  for (const auto& sub : want.hierarchy->subgraphs()) {
    for (NodeId hub : sub.hubs) {
      expect_same(VectorKind::kSkeletonColumn, sub.id, hub);
      expect_same(VectorKind::kHubPartial, sub.id, hub);
    }
    if (sub.children.empty()) {
      for (NodeId u : sub.nodes) expect_same(VectorKind::kOwnVector, sub.id, u);
    }
  }
  for (size_t m = 0; m < want.num_machines(); ++m) {
    EXPECT_EQ(got.stores[m].num_vectors(), want.stores[m].num_vectors());
    EXPECT_EQ(got.stores[m].TotalSerializedBytes(),
              want.stores[m].TotalSerializedBytes());
    for (VectorKind kind : {VectorKind::kOwnVector, VectorKind::kHubPartial,
                            VectorKind::kSkeletonColumn}) {
      EXPECT_EQ(got.stores[m].SerializedBytesByKind(kind),
                want.stores[m].SerializedBytesByKind(kind))
          << "machine " << m << " kind " << static_cast<int>(kind);
    }
  }
  ASSERT_EQ(got.levels.size(), want.levels.size());
  for (size_t i = 0; i < want.levels.size(); ++i) {
    EXPECT_EQ(got.levels[i].level, want.levels[i].level);
    EXPECT_EQ(got.levels[i].induces, want.levels[i].induces);
    EXPECT_EQ(got.levels[i].local_records, want.levels[i].local_records);
    EXPECT_EQ(got.levels[i].local_bytes, want.levels[i].local_bytes);
    EXPECT_EQ(got.levels[i].shuffled_records, want.levels[i].shuffled_records);
    EXPECT_EQ(got.levels[i].shuffled_bytes, want.levels[i].shuffled_bytes);
  }
  EXPECT_EQ(got.induces, want.induces);
  EXPECT_EQ(got.offline.rounds, want.offline.rounds);
  EXPECT_EQ(got.offline.exchange_rounds, want.offline.exchange_rounds);
  EXPECT_EQ(got.offline.comm.bytes, want.offline.comm.bytes);
  EXPECT_EQ(got.offline.comm.messages, want.offline.comm.messages);
  EXPECT_EQ(got.offline.shuffled.bytes, want.offline.shuffled.bytes);
  EXPECT_EQ(got.offline.shuffled.messages, want.offline.shuffled.messages);
}

TEST(DistPrecompute, ParallelHubKernelsMatchSerialInBothClusterModes) {
  Graph g = RandomDigraph(300, 3.0, 13);
  HgpaOptions serial = SmallOptions();
  serial.parallel = false;
  const Hierarchy hierarchy = Hierarchy::Build(g, serial.hierarchy);
  // The home loop must cross a chunk boundary for this to test chunking.
  size_t max_hubs = 0;
  for (const auto& sub : hierarchy.subgraphs()) {
    max_hubs = std::max(max_hubs, sub.hubs.size());
  }
  ASSERT_GT(max_hubs, DistributedPrecompute::kHubChunk);

  HgpaOptions parallel = serial;
  parallel.parallel = true;
  for (bool sequential : {false, true}) {
    DistPrecomputeOptions dist;
    dist.num_machines = 4;
    dist.sequential = sequential;
    DistributedPrecompute::Result want =
        DistributedPrecompute::Run(g, hierarchy, serial, dist);
    DistributedPrecompute::Result got =
        DistributedPrecompute::Run(g, hierarchy, parallel, dist);
    SCOPED_TRACE(sequential ? "sequential cluster" : "parallel cluster");
    ExpectSameOfflineOutput(want, got);
  }
}

size_t HubLevels(const Hierarchy& hierarchy) {
  size_t hub_levels = 0;
  std::vector<bool> seen(hierarchy.num_levels(), false);
  for (const auto& sub : hierarchy.subgraphs()) {
    if (!sub.hubs.empty() && !seen[sub.level]) {
      seen[sub.level] = true;
      ++hub_levels;
    }
  }
  return hub_levels;
}

TEST(DistPrecompute, OfflineStatsCountSuperstepsAndTraffic) {
  Graph g = RandomDigraph(100, 3.0, 64);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);

  const Hierarchy& h = *result.hierarchy;
  const size_t hub_levels = HubLevels(h);
  ASSERT_GT(hub_levels, 0u);

  // One leaf gather round, then one exchange round per level with hubs: the
  // coordinator link carries only the leaf gather.
  EXPECT_EQ(result.offline.rounds, 1 + hub_levels);
  EXPECT_EQ(result.offline.exchange_rounds, hub_levels);
  EXPECT_EQ(result.offline.comm.messages, dist.num_machines);
  EXPECT_EQ(result.offline.shuffled.messages,
            hub_levels * dist.num_machines * (dist.num_machines - 1));

  // Every subgraph is induced exactly once, on its home machine: each leaf
  // in the leaf superstep, each hub-bearing subgraph in its level's shuffle.
  size_t expected_induces = h.leaves().size();
  for (const auto& sub : h.subgraphs()) {
    if (!sub.hubs.empty()) ++expected_induces;
  }
  EXPECT_EQ(result.induces, expected_induces);

  // The per-level record ledger partitions the shuffle: records that left
  // their compute site are exactly the bytes the exchange rounds carried
  // across machines.
  size_t level_shuffled = 0;
  size_t level_records = 0;
  ASSERT_EQ(result.levels.size(), hub_levels);
  for (const auto& level : result.levels) {
    level_shuffled += level.shuffled_bytes;
    level_records += level.local_records + level.shuffled_records;
  }
  EXPECT_EQ(level_shuffled, result.offline.shuffled.bytes);
  size_t hub_count = 0;
  for (const auto& sub : h.subgraphs()) hub_count += sub.hubs.size();
  EXPECT_EQ(level_records, 2 * hub_count);  // skeleton column + hub partial

  // Stored footprint matches the centralized oracle distributed onto the
  // same machines.
  HgpaIndex centralized = HgpaIndex::Distribute(pre, dist.num_machines);
  EXPECT_EQ(result.TotalBytes(), centralized.TotalBytes());

  EXPECT_GT(result.offline.simulated_seconds, 0.0);
  EXPECT_GT(result.ledger.TotalSeconds(), 0.0);
  EXPECT_EQ(result.ledger.num_machines(), dist.num_machines);
}

TEST(DistPrecompute, LocalityPlacementSharedWithIndexAndMatchesCentralized) {
  Graph g = RandomDigraph(110, 3.0, 19);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);
  HgpaIndex centralized = HgpaIndex::Distribute(pre, 4);

  for (bool sequential : {false, true}) {
    DistPrecomputeOptions dist;
    dist.num_machines = 4;
    dist.sequential = sequential;
    DistributedPrecompute::Result result =
        DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
    ExpectBitIdentical(*pre, result);
    for (size_t m = 0; m < dist.num_machines; ++m) {
      EXPECT_EQ(result.stores[m].TotalSerializedBytes(),
                centralized.store(m).TotalSerializedBytes())
          << "machine " << m;
    }

    // The offline run and the centralized path derive the same plan from
    // the same hierarchy...
    const PlacementPlan& plan = *result.plan;
    const PlacementPlan& oracle_plan = *centralized.shared_plan();
    EXPECT_EQ(plan.own_machine, oracle_plan.own_machine);
    EXPECT_EQ(plan.machine_hubs, oracle_plan.machine_hubs);
    EXPECT_EQ(plan.home_machine, oracle_plan.home_machine);

    // ...and the index adopting the run holds that very table, not a copy.
    std::shared_ptr<const PlacementPlan> shared = result.plan;
    HgpaIndex index = HgpaIndex::FromDistributed(std::move(result));
    EXPECT_EQ(index.shared_plan(), shared);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(index.own_vector_machine(u), centralized.own_vector_machine(u));
    }
  }
}

TEST(DistPrecompute, GpaLocalityModeBitIdenticalToCentralized) {
  Graph g = RandomDigraph(90, 3.0, 47);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunGpa(g, 5, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 3;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  ExpectBitIdentical(*pre, result);
  // GPA's flat hierarchy has one hub level: one leaf gather + one shuffle.
  EXPECT_EQ(result.offline.rounds, 2u);
  EXPECT_EQ(result.offline.exchange_rounds, 1u);
}

TEST(DistPrecompute, HomeMachinePartitionsSubgraphsAndMatchesLeafPacking) {
  Graph g = RandomDigraph(130, 3.0, 3);
  HgpaOptions options = SmallOptions();

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result result =
      DistributedPrecompute::RunHgpa(g, options, dist);

  const PlacementPlan& plan = *result.plan;
  ASSERT_EQ(plan.home_machine.size(), result.hierarchy->num_subgraphs());
  for (size_t home : plan.home_machine) {
    EXPECT_LT(home, dist.num_machines);
  }
  // A leaf's home is the machine its packing put it on — the machine whose
  // nodes it owns.
  for (size_t m = 0; m < dist.num_machines; ++m) {
    for (SubgraphId leaf : plan.machine_leaves[m]) {
      EXPECT_EQ(plan.home_machine[leaf], m) << "leaf " << leaf;
      for (NodeId u : result.hierarchy->subgraph(leaf).nodes) {
        EXPECT_EQ(plan.own_machine[u], m);
      }
    }
  }
}

TEST(DistPrecompute, CommBytesIndependentOfNetworkModel) {
  Graph g = RandomDigraph(80, 3.0, 29);
  HgpaOptions options = SmallOptions();

  DistPrecomputeOptions slow;
  slow.num_machines = 3;
  slow.sequential = true;
  slow.network = NetworkModel::Lan100Mbit();
  DistPrecomputeOptions fast = slow;
  fast.network = NetworkModel::Datacenter();

  DistributedPrecompute::Result a =
      DistributedPrecompute::RunHgpa(g, options, slow);
  DistributedPrecompute::Result b =
      DistributedPrecompute::RunHgpa(g, options, fast);
  EXPECT_EQ(a.offline.comm.bytes, b.offline.comm.bytes);
  EXPECT_EQ(a.offline.comm.messages, b.offline.comm.messages);
  EXPECT_EQ(a.TotalBytes(), b.TotalBytes());
}

TEST(DistPrecompute, SingleMachineClusterHoldsEverything) {
  Graph g = RandomDigraph(60, 3.0, 42);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 1;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  EXPECT_EQ(result.stores[0].num_vectors(), pre->items().size());
  EXPECT_EQ(result.stores[0].num_owned(), pre->items().size());
  EXPECT_EQ(result.TotalBytes(), pre->TotalBytes());
}

TEST(DistPrecompute, PreferenceSetQueriesMatchAcrossPaths) {
  Graph g = RandomDigraph(90, 3.0, 77);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  HgpaQueryEngine legacy(HgpaIndex::Distribute(pre, 4));
  HgpaQueryEngine owned(HgpaIndex::FromDistributed(std::move(result)));

  std::vector<HgpaQueryEngine::Preference> prefs{{5, 0.5}, {42, 0.3}, {77, 0.2}};
  EXPECT_EQ(legacy.QueryPreferenceSet(prefs), owned.QueryPreferenceSet(prefs));
}

}  // namespace
}  // namespace dppr
