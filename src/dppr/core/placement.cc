#include "dppr/core/placement.h"

#include <algorithm>

#include "dppr/common/macros.h"

namespace dppr {

std::shared_ptr<const PlacementPlan> PlacementPlan::Build(
    const Hierarchy& hierarchy, size_t num_machines) {
  DPPR_CHECK_GE(num_machines, 1u);
  auto shared = std::make_shared<PlacementPlan>();
  PlacementPlan& plan = *shared;
  plan.machine_hubs.resize(num_machines);
  plan.machine_leaves.resize(num_machines);
  plan.own_machine.assign(hierarchy.num_nodes(), 0);

  // Eq. 7: split each subgraph's hub set evenly over machines. The rotation
  // by subgraph id spreads the remainder hubs across machines.
  for (const auto& sub : hierarchy.subgraphs()) {
    for (size_t rank = 0; rank < sub.hubs.size(); ++rank) {
      size_t machine = (rank + sub.id) % num_machines;
      NodeId hub = sub.hubs[rank];
      plan.machine_hubs[machine][sub.id].push_back(hub);
      plan.own_machine[hub] = machine;  // hub's own vector = its partial
    }
  }

  // Larger-first, lowest-machine / lowest-id tie breaks: the packing below
  // must be identical on every run (home assignments feed byte ledgers that
  // equivalence tests compare bit for bit).
  auto by_size_desc = [&](SubgraphId a, SubgraphId b) {
    size_t sa = hierarchy.subgraph(a).nodes.size();
    size_t sb = hierarchy.subgraph(b).nodes.size();
    if (sa != sb) return sa > sb;
    return a < b;
  };
  auto least_loaded = [](const std::vector<size_t>& load) {
    return static_cast<size_t>(std::min_element(load.begin(), load.end()) -
                               load.begin());
  };

  // Leaf subgraphs: greedy least-loaded by node count, larger leaves first.
  // The packing machine is also the leaf's home — it is the one machine that
  // holds the leaf's data after the offline phase.
  plan.home_machine.assign(hierarchy.num_subgraphs(), 0);
  std::vector<SubgraphId> leaves = hierarchy.leaves();
  std::sort(leaves.begin(), leaves.end(), by_size_desc);
  std::vector<size_t> load(num_machines, 0);
  for (SubgraphId leaf : leaves) {
    size_t machine = least_loaded(load);
    const auto& sub = hierarchy.subgraph(leaf);
    load[machine] += sub.nodes.size();
    plan.machine_leaves[machine].push_back(leaf);
    plan.home_machine[leaf] = machine;
    for (NodeId u : sub.nodes) plan.own_machine[u] = machine;
  }

  // Internal subgraphs (the hub compute sites): their nodes span many leaves
  // on many machines, so no machine is "where the data lives" — fall back to
  // the same greedy least-loaded packing, continuing from the leaf loads.
  std::vector<SubgraphId> internal;
  for (const auto& sub : hierarchy.subgraphs()) {
    if (!sub.children.empty()) internal.push_back(sub.id);
  }
  std::sort(internal.begin(), internal.end(), by_size_desc);
  for (SubgraphId id : internal) {
    size_t machine = least_loaded(load);
    load[machine] += hierarchy.subgraph(id).nodes.size();
    plan.home_machine[id] = machine;
  }
  return shared;
}

}  // namespace dppr
