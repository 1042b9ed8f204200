#ifndef DPPR_CORE_PLACEMENT_H_
#define DPPR_CORE_PLACEMENT_H_

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dppr/partition/hierarchy.h"

namespace dppr {

/// Which machine computes and stores each precomputed vector, decided from
/// the hierarchy alone (placement is independent of the vectors' contents):
///
///  - hub vectors: each subgraph's hub set is split evenly over machines
///    (Eq. 7), rotated by subgraph id so remainder hubs spread out;
///  - leaf subgraphs: greedy least-loaded packing by node count, larger
///    leaves first ("distribute the leaf level subgraphs evenly", §4.4).
///
/// The plan is built once and shared read-only: the offline drivers
/// (HgpaIndex::Distribute over a centralized precomputation,
/// DistributedPrecompute's SimCluster rounds), the index, the query router
/// and hot-shard replication all read the same table, so the distributed
/// rebuild reproduces the centralized placement exactly — including the
/// per-(machine, subgraph) hub order the query-time accumulation depends on.
///
/// Every subgraph additionally has a *home machine* — its offline compute
/// site, distinct from the Eq. 7 *owner* that stores each hub's vectors. Leaves are home where the leaf packing put them (that machine
/// already holds their data); internal subgraphs span many leaves, so they
/// fall back to deterministic least-loaded packing by node count.
struct PlacementPlan {
  /// Hubs a machine is responsible for, grouped by subgraph, in Eq. 7 rank
  /// order (the order query-time accumulation folds them in).
  std::vector<std::unordered_map<SubgraphId, std::vector<NodeId>>> machine_hubs;
  /// Leaf subgraphs packed onto each machine, in assignment order.
  std::vector<std::vector<SubgraphId>> machine_leaves;
  /// Per node: the machine holding its own vector (leaf local PPV for
  /// non-hubs, the hub partial vector for hubs).
  std::vector<size_t> own_machine;
  /// Per subgraph: the machine that computes the subgraph's vectors in the
  /// offline phase. For leaves this is the leaf-packing machine; internal subgraphs are packed greedy
  /// least-loaded by node count, larger first, seeded with the leaf loads so
  /// leaf-heavy machines pick up fewer hub subgraphs.
  std::vector<size_t> home_machine;

  size_t num_machines() const { return machine_hubs.size(); }

  static std::shared_ptr<const PlacementPlan> Build(const Hierarchy& hierarchy,
                                                    size_t num_machines);
};

}  // namespace dppr

#endif  // DPPR_CORE_PLACEMENT_H_
