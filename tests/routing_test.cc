#include "dppr/core/routing.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "dppr/core/hgpa.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;

HgpaOptions RoutingTestOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 4;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

std::shared_ptr<const HgpaPrecomputation> Precompute(const Graph& graph,
                                                     bool hgpa = true) {
  HgpaOptions options = RoutingTestOptions();
  if (!hgpa) options.hierarchy.max_levels = 1;  // GPA: flat hierarchy
  return HgpaPrecomputation::RunHgpa(graph, options);
}

HgpaQueryEngine MakeEngine(std::shared_ptr<const HgpaPrecomputation> pre,
                           size_t machines, RoutingMode mode,
                           size_t replicate_bytes = 0) {
  ReplicationOptions replication;
  replication.budget_bytes = replicate_bytes;
  return HgpaQueryEngine(
      HgpaIndex::Distribute(std::move(pre), machines, StorageOptions::FromEnv(),
                            replication),
      NetworkModel{}, TransportOptions::FromEnv(), RoutingOptions{mode});
}

std::vector<size_t> AllMachines(size_t n) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

/// Broadcast's identity plan, as a query's metrics see it: every machine
/// ran, each shipped exactly one fragment, and nothing was saved.
void ExpectIdentityRound(const QueryMetrics& metrics, size_t machines) {
  EXPECT_EQ(metrics.machines, AllMachines(machines));
  EXPECT_EQ(metrics.machines_contacted, machines);
  EXPECT_EQ(metrics.comm.messages, machines);
  EXPECT_EQ(metrics.routing_bytes_saved, 0u);
}

/// The core invariant: routed answers are BIT-identical to broadcast for
/// every query node — same fold order per owner, owner-ascending coordinator
/// reduce, so the floating-point sums match exactly.
void ExpectRoutedMatchesBroadcast(const Graph& graph, size_t machines,
                                  bool hgpa, size_t replicate_bytes) {
  auto pre = Precompute(graph, hgpa);
  HgpaQueryEngine routed =
      MakeEngine(pre, machines, RoutingMode::kRoute, replicate_bytes);
  HgpaQueryEngine broadcast =
      MakeEngine(pre, machines, RoutingMode::kBroadcast);
  ASSERT_EQ(routed.routing_mode(), RoutingMode::kRoute);
  ASSERT_EQ(broadcast.routing_mode(), RoutingMode::kBroadcast);
  ASSERT_NE(routed.router(), nullptr);
  ASSERT_NE(broadcast.router(), nullptr);
  ASSERT_EQ(broadcast.router()->mode(), RoutingMode::kBroadcast);

  uint64_t routed_messages = 0, broadcast_messages = 0;
  for (NodeId q = 0; q < graph.num_nodes(); ++q) {
    QueryMetrics routed_metrics, broadcast_metrics;
    SparseVector a = routed.Query(q, &routed_metrics);
    SparseVector b = broadcast.Query(q, &broadcast_metrics);
    EXPECT_EQ(a, b) << "query " << q;
    EXPECT_LE(routed_metrics.machines_contacted,
              broadcast_metrics.machines_contacted)
        << "query " << q;
    EXPECT_GE(routed_metrics.machines_contacted, 1u) << "query " << q;
    ExpectIdentityRound(broadcast_metrics, machines);
    routed_messages += routed_metrics.comm.messages;
    broadcast_messages += broadcast_metrics.comm.messages;
  }
  EXPECT_LE(routed_messages, broadcast_messages);
}

TEST(QueryRouting, RoutedBitIdenticalToBroadcastHgpa) {
  ExpectRoutedMatchesBroadcast(RandomDigraph(90, 3.0, 17), 4, /*hgpa=*/true,
                               /*replicate_bytes=*/0);
}

TEST(QueryRouting, RoutedBitIdenticalToBroadcastGpa) {
  ExpectRoutedMatchesBroadcast(RandomDigraph(90, 3.0, 29), 4, /*hgpa=*/false,
                               /*replicate_bytes=*/0);
}

TEST(QueryRouting, RoutedBitIdenticalWithReplication) {
  // A generous budget replicates most hub groups: plans collapse toward the
  // source's own machine, and answers must STILL be bit-identical.
  ExpectRoutedMatchesBroadcast(RandomDigraph(90, 3.0, 17), 4, /*hgpa=*/true,
                               /*replicate_bytes=*/64 << 20);
}

TEST(QueryRouting, ManyMachinesLeaveNonContributors) {
  // More machines than any one chain touches: routing must skip machines
  // outright and report the bytes broadcast would have wasted on them.
  Graph graph = RandomDigraph(40, 1.5, 7);
  auto pre = Precompute(graph);
  HgpaQueryEngine routed = MakeEngine(pre, 8, RoutingMode::kRoute);
  HgpaQueryEngine broadcast = MakeEngine(pre, 8, RoutingMode::kBroadcast);
  bool any_skipped = false;
  for (NodeId q = 0; q < graph.num_nodes(); ++q) {
    QueryMetrics metrics;
    SparseVector a = routed.Query(q, &metrics);
    EXPECT_EQ(a, broadcast.Query(q)) << "query " << q;
    if (metrics.machines_contacted < 8) {
      any_skipped = true;
      EXPECT_GT(metrics.routing_bytes_saved, 0u) << "query " << q;
    }
  }
  EXPECT_TRUE(any_skipped);
}

TEST(QueryRouting, PreferenceSetsAndBatchesMatchBroadcast) {
  Graph graph = RandomDigraph(80, 3.0, 5);
  auto pre = Precompute(graph);
  HgpaQueryEngine routed = MakeEngine(pre, 3, RoutingMode::kRoute);
  HgpaQueryEngine broadcast = MakeEngine(pre, 3, RoutingMode::kBroadcast);
  using Preference = HgpaQueryEngine::Preference;

  std::vector<std::vector<Preference>> batch{
      {{7, 1.0}},
      {{3, 0.5}, {40, 0.5}},
      {{12, 0.25}, {13, 0.25}, {60, 0.5}},
      {{7, 1.0}},
  };
  std::vector<QueryMetrics> per_query;
  QueryMetrics round;
  std::vector<SparseVector> got =
      routed.QueryPreferenceSetMany(batch, &per_query, &round);
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], broadcast.QueryPreferenceSet(batch[i])) << "slot " << i;
    // Unbatched routed answers match too (same plan, own round).
    EXPECT_EQ(routed.QueryPreferenceSet(batch[i]), got[i]) << "slot " << i;
  }
  EXPECT_GE(round.comm.messages, 1u);
  EXPECT_LE(round.comm.messages, routed.index().num_machines());
}

TEST(QueryRouting, ZeroWeightPreferencesContactNoMachines) {
  Graph graph = RandomDigraph(40, 3.0, 9);
  auto pre = Precompute(graph);
  HgpaQueryEngine routed = MakeEngine(pre, 3, RoutingMode::kRoute);
  QueryMetrics metrics;
  SparseVector ppv = routed.QueryPreferenceSet(
      std::vector<HgpaQueryEngine::Preference>{{5, 0.0}}, &metrics);
  EXPECT_EQ(ppv.size(), 0u);
  EXPECT_EQ(metrics.machines_contacted, 0u);
  EXPECT_EQ(metrics.comm.messages, 0u);
}

TEST(QueryRouting, BroadcastIsTheIdentityPlan) {
  Graph graph = RandomDigraph(40, 3.0, 9);
  auto pre = Precompute(graph);
  constexpr size_t kMachines = 3;
  HgpaIndex index = HgpaIndex::Distribute(pre, kMachines);
  QueryRouter router(index, RoutingMode::kBroadcast);
  EXPECT_EQ(router.mode(), RoutingMode::kBroadcast);

  // Every source set — the empty one included — gets machines 0..n-1, each
  // covering only itself.
  const std::vector<std::vector<size_t>> identity_owners{{0}, {1}, {2}};
  const NodeId one[] = {5};
  const NodeId two[] = {5, 31};
  for (std::span<const NodeId> sources :
       {std::span<const NodeId>(), std::span<const NodeId>(one),
        std::span<const NodeId>(two)}) {
    QueryRouter::Plan plan = router.Route(sources);
    EXPECT_EQ(plan.machines, AllMachines(kMachines));
    EXPECT_EQ(plan.owners, identity_owners);
    EXPECT_EQ(plan.contributors, kMachines);
  }

  // An all-zero-weight preference set still runs the full round: one empty
  // fragment per machine.
  HgpaQueryEngine broadcast = MakeEngine(pre, kMachines, RoutingMode::kBroadcast);
  QueryMetrics metrics;
  SparseVector ppv = broadcast.QueryPreferenceSet(
      std::vector<HgpaQueryEngine::Preference>{{5, 0.0}}, &metrics);
  EXPECT_EQ(ppv.size(), 0u);
  ExpectIdentityRound(metrics, kMachines);
  EXPECT_EQ(metrics.comm.bytes, kMachines * SparseVector().SerializedBytes());

  // Batched broadcast queries each report the identity plan too.
  std::vector<std::vector<HgpaQueryEngine::Preference>> batch{
      {{7, 1.0}}, {{3, 0.0}}, {{12, 0.5}, {30, 0.5}}};
  std::vector<QueryMetrics> per_query;
  QueryMetrics round;
  broadcast.QueryPreferenceSetMany(batch, &per_query, &round);
  ASSERT_EQ(per_query.size(), batch.size());
  for (const QueryMetrics& m : per_query) ExpectIdentityRound(m, kMachines);
  EXPECT_EQ(round.comm.messages, kMachines);
}

TEST(QueryRouting, PlanInvariants) {
  Graph graph = RandomDigraph(90, 3.0, 17);
  auto pre = Precompute(graph);
  HgpaIndex index = HgpaIndex::Distribute(pre, 5);
  QueryRouter router(index);
  for (NodeId q = 0; q < graph.num_nodes(); ++q) {
    NodeId sources[] = {q};
    QueryRouter::Plan plan = router.Route(sources);
    ASSERT_GE(plan.machines.size(), 1u);
    ASSERT_EQ(plan.owners.size(), plan.machines.size());
    // Participants sorted strictly ascending; every participant covers at
    // least itself; owner lists sorted; owners covered exactly once overall.
    std::vector<bool> covered(index.num_machines(), false);
    size_t owners_total = 0;
    for (size_t i = 0; i < plan.machines.size(); ++i) {
      if (i > 0) EXPECT_LT(plan.machines[i - 1], plan.machines[i]);
      ASSERT_LT(plan.machines[i], index.num_machines());
      ASSERT_GE(plan.owners[i].size(), 1u);
      for (size_t j = 0; j < plan.owners[i].size(); ++j) {
        if (j > 0) EXPECT_LT(plan.owners[i][j - 1], plan.owners[i][j]);
        EXPECT_FALSE(covered[plan.owners[i][j]]);
        covered[plan.owners[i][j]] = true;
      }
      owners_total += plan.owners[i].size();
      EXPECT_TRUE(covered[plan.machines[i]]) << "machine must cover itself";
    }
    EXPECT_EQ(owners_total, plan.contributors);
    // The source's own-vector machine always participates or is absorbed.
    EXPECT_TRUE(covered[index.own_vector_machine(q)]);
  }
}

TEST(QueryRouting, ReplicationBookkeeping) {
  Graph graph = RandomDigraph(90, 3.0, 17);
  auto pre = Precompute(graph);
  constexpr size_t kBudget = 1 << 16;
  ReplicationOptions replication;
  replication.budget_bytes = kBudget;
  HgpaIndex plain = HgpaIndex::Distribute(pre, 4);
  HgpaIndex replicated =
      HgpaIndex::Distribute(pre, 4, StorageOptions::FromEnv(), replication);

  EXPECT_EQ(plain.num_replicated_hubs(), 0u);
  EXPECT_EQ(plain.replica_bytes_per_machine(), 0u);
  EXPECT_GT(replicated.num_replicated_hubs(), 0u);
  EXPECT_GT(replicated.replica_bytes_per_machine(), 0u);
  EXPECT_LE(replicated.replica_bytes_per_machine(), kBudget);
  // Replicas are whole (sub, owner) groups: if one hub of a group is
  // replicated, all of that owner's hubs in the subgraph are.
  for (size_t m = 0; m < replicated.num_machines(); ++m) {
    for (const auto& [sub, hubs] : replicated.hubs_on_machine(m)) {
      size_t marked = 0;
      for (NodeId hub : hubs) marked += replicated.hub_replicated(sub, hub);
      EXPECT_TRUE(marked == 0 || marked == hubs.size())
          << "partial group sub=" << sub << " machine=" << m;
    }
  }
  // Replication inflates per-machine bytes by exactly the replica ledger.
  std::vector<size_t> plain_bytes = plain.BytesPerMachine();
  std::vector<size_t> repl_bytes = replicated.BytesPerMachine();
  for (size_t m = 0; m < 4; ++m) {
    EXPECT_GE(repl_bytes[m], plain_bytes[m]);
    EXPECT_LE(repl_bytes[m] - plain_bytes[m],
              replicated.replica_bytes_per_machine());
  }
}

TEST(QueryRouting, EnvSelectsMode) {
  // The suite itself runs under every DPPR_ROUTING CI leg: save and restore.
  const char* prev = ::getenv("DPPR_ROUTING");
  std::string saved = prev ? prev : "";
  ::setenv("DPPR_ROUTING", "broadcast", 1);
  EXPECT_EQ(RoutingOptions::FromEnv().mode, RoutingMode::kBroadcast);
  ::setenv("DPPR_ROUTING", "route", 1);
  EXPECT_EQ(RoutingOptions::FromEnv().mode, RoutingMode::kRoute);
  ::unsetenv("DPPR_ROUTING");
  EXPECT_EQ(RoutingOptions::FromEnv().mode, RoutingMode::kRoute);
  EXPECT_EQ(RoutingOptions::FromEnv(RoutingMode::kBroadcast).mode,
            RoutingMode::kBroadcast);
  if (prev) ::setenv("DPPR_ROUTING", saved.c_str(), 1);
}

}  // namespace
}  // namespace dppr
