#include "dppr/core/hgpa.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "dppr/common/env.h"
#include "dppr/common/serialize.h"
#include "dppr/ppr/sparse_vector.h"

namespace dppr {
ReplicationOptions ReplicationOptions::FromEnv() {
  ReplicationOptions options;
  int64_t budget = GetEnvInt("DPPR_REPLICATE_BYTES", 0);
  DPPR_CHECK_GE(budget, 0);
  options.budget_bytes = static_cast<size_t>(budget);
  return options;
}

HgpaIndex HgpaIndex::Distribute(
    std::shared_ptr<const HgpaPrecomputation> precomputation,
    size_t num_machines, const StorageOptions& storage,
    const ReplicationOptions& replication) {
  DPPR_CHECK(precomputation != nullptr);
  DPPR_CHECK_GE(num_machines, 1u);

  HgpaIndex index;
  index.precomputation_ = std::move(precomputation);
  const HgpaPrecomputation& pre = *index.precomputation_;
  // Aliasing share: the hierarchy lives inside the precomputation, which the
  // index keeps alive for its own lifetime.
  index.hierarchy_ = std::shared_ptr<const Hierarchy>(index.precomputation_,
                                                      &pre.hierarchy());
  index.graph_ = &pre.graph();
  index.options_ = pre.options();
  const Hierarchy& hierarchy = *index.hierarchy_;

  index.plan_ = PlacementPlan::Build(hierarchy, num_machines);
  const PlacementPlan& plan = *index.plan_;
  index.stores_.reserve(num_machines);
  for (size_t m = 0; m < num_machines; ++m) index.stores_.emplace_back(storage);
  index.offline_ = MachineTimeLedger(num_machines);

  auto place = [&](VectorKind kind, SubgraphId sub, NodeId node, size_t machine) {
    const HgpaPrecomputation::Item* item = pre.FindItem(kind, sub, node);
    DPPR_CHECK(item != nullptr);
    index.stores_[machine].Put(kind, sub, node, &item->vec, item->bytes);
    index.offline_.Add(machine, item->seconds);
  };

  // Walk the hierarchy in subgraph order (not the plan's hash-map order) so
  // the ledger's floating-point sums are deterministic across runs.
  for (const auto& sub : hierarchy.subgraphs()) {
    for (NodeId hub : sub.hubs) {
      size_t machine = plan.own_machine[hub];
      place(VectorKind::kHubPartial, sub.id, hub, machine);
      place(VectorKind::kSkeletonColumn, sub.id, hub, machine);
    }
  }
  for (SubgraphId leaf : hierarchy.leaves()) {
    for (NodeId u : hierarchy.subgraph(leaf).nodes) {
      place(VectorKind::kOwnVector, leaf, u, plan.own_machine[u]);
    }
  }

  index.ReplicateHotShards(replication);
  return index;
}

HgpaIndex HgpaIndex::FromDistributed(DistributedPrecompute::Result result,
                                     const ReplicationOptions& replication) {
  DPPR_CHECK(result.graph != nullptr);
  DPPR_CHECK(result.hierarchy != nullptr);
  DPPR_CHECK(result.plan != nullptr);
  DPPR_CHECK_GE(result.stores.size(), 1u);

  HgpaIndex index;
  index.graph_ = result.graph;
  index.hierarchy_ = std::move(result.hierarchy);
  index.options_ = result.options;
  index.stores_ = std::move(result.stores);
  index.plan_ = std::move(result.plan);
  index.offline_ = std::move(result.ledger);
  index.ReplicateHotShards(replication);
  return index;
}

void HgpaIndex::ReplicateHotShards(const ReplicationOptions& replication) {
  if (replication.budget_bytes == 0 || stores_.size() <= 1) return;
  // Routing can only skip (or absorb) a machine for a chain subgraph when
  // EVERY hub that machine owns in the subgraph is replicated — a partial
  // group still forces the machine into the round. So replication packs
  // whole (subgraph, owner) hub groups. Heat proxy: a subgraph's reach —
  // the nodes whose query chain passes through it is exactly its node set,
  // so high-level groups that sit on every chain score highest — divided by
  // the group's bytes (most fan-out reduction per replicated byte).
  struct Group {
    double score;
    SubgraphId sub;
    uint32_t owner;
    size_t bytes;
  };
  std::vector<Group> groups;
  for (size_t m = 0; m < stores_.size(); ++m) {
    for (const auto& [sub, hubs] : plan_->machine_hubs[m]) {
      size_t bytes = 0;
      for (NodeId hub : hubs) {
        PpvPair pair = stores_[m].FindPair(sub, hub);
        DPPR_CHECK(pair.skeleton);
        DPPR_CHECK(pair.partial);
        bytes += pair.skeleton->SerializedBytes() +
                 pair.partial->SerializedBytes();
      }
      const double reach =
          static_cast<double>(hierarchy_->subgraph(sub).nodes.size());
      groups.push_back({reach / static_cast<double>(bytes), sub,
                        static_cast<uint32_t>(m), bytes});
    }
  }
  // (sub, owner) is unique, so the order is total and every machine
  // replicates the same set regardless of hash-map iteration order.
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.sub != b.sub) return a.sub < b.sub;
    return a.owner < b.owner;
  });
  for (const Group& g : groups) {
    // Groups are replicated whole or not at all; an oversized group is
    // skipped and packing continues with the smaller ones behind it.
    if (replica_bytes_ + g.bytes > replication.budget_bytes) continue;
    for (NodeId hub : plan_->machine_hubs[g.owner].at(g.sub)) {
      PpvPair pair = stores_[g.owner].FindPair(g.sub, hub);
      const size_t skeleton_bytes = pair.skeleton->SerializedBytes();
      const size_t partial_bytes = pair.partial->SerializedBytes();
      for (size_t m = 0; m < stores_.size(); ++m) {
        if (m == g.owner) continue;
        stores_[m].PutOwned(VectorKind::kSkeletonColumn, g.sub, hub,
                            *pair.skeleton, skeleton_bytes);
        stores_[m].PutOwned(VectorKind::kHubPartial, g.sub, hub,
                            *pair.partial, partial_bytes);
      }
      replicated_hubs_.insert(
          MakeVectorKey(VectorKind::kHubPartial, g.sub, hub));
    }
    replica_bytes_ += g.bytes;
  }
}

size_t HgpaIndex::MaxMachineBytes() const {
  size_t max = 0;
  for (const auto& store : stores_) max = std::max(max, store.TotalSerializedBytes());
  return max;
}

size_t HgpaIndex::TotalBytes() const {
  size_t total = 0;
  for (const auto& store : stores_) total += store.TotalSerializedBytes();
  return total;
}

std::vector<size_t> HgpaIndex::BytesPerMachine() const {
  std::vector<size_t> bytes;
  bytes.reserve(stores_.size());
  for (const auto& store : stores_) bytes.push_back(store.TotalSerializedBytes());
  return bytes;
}

StorageStats HgpaIndex::StorageStatsTotal() const {
  StorageStats total;
  for (const auto& store : stores_) total += store.storage_stats();
  return total;
}

size_t HgpaIndex::ResidentBytesTotal() const {
  size_t total = 0;
  for (const auto& store : stores_) total += store.ResidentBytes();
  return total;
}

HgpaQueryEngine::HgpaQueryEngine(HgpaIndex index, NetworkModel network,
                                 TransportOptions transport,
                                 RoutingOptions routing)
    : index_(std::move(index)),
      cluster_(index_.num_machines(), network, /*sequential=*/false, transport),
      router_(std::make_shared<const QueryRouter>(index_, routing.mode)) {}

void HgpaQueryEngine::CollectOwnerKeys(size_t owner,
                                       std::span<const Preference> preferences,
                                       std::vector<uint64_t>& keys) const {
  const Hierarchy& hierarchy = index_.hierarchy();
  const auto& owner_hubs = index_.hubs_on_machine(owner);
  for (const Preference& pref : preferences) {
    if (pref.weight == 0.0) continue;
    NodeId query = pref.node;
    for (SubgraphId sub : hierarchy.Chain(query)) {
      auto it = owner_hubs.find(sub);
      if (it == owner_hubs.end()) continue;
      for (NodeId hub : it->second) {
        keys.push_back(MakeVectorKey(VectorKind::kSkeletonColumn, sub, hub));
        keys.push_back(MakeVectorKey(VectorKind::kHubPartial, sub, hub));
      }
    }
    if (index_.own_vector_machine(query) == owner) {
      SubgraphId final_sub = hierarchy.final_subgraph(query);
      VectorKind kind = hierarchy.is_hub(query) ? VectorKind::kHubPartial
                                                : VectorKind::kOwnVector;
      keys.push_back(MakeVectorKey(kind, final_sub, query));
    }
  }
}

std::vector<uint8_t> HgpaQueryEngine::MachineTask(
    size_t machine, std::span<const std::span<const Preference>> queries,
    std::span<const QueryRouter::Plan> plans) const {
  // Which slot of each plan this machine fills (SIZE_MAX = not targeted).
  auto slot_of = [&](const QueryRouter::Plan& plan) -> size_t {
    auto it = std::lower_bound(plan.machines.begin(), plan.machines.end(),
                               machine);
    if (it == plan.machines.end() || *it != machine) return SIZE_MAX;
    return static_cast<size_t>(it - plan.machines.begin());
  };

  // Pull the batch's cold extents in up front with sorted, coalesced reads:
  // without this every miss preads one extent inside the fold, serialized
  // per hub. Only the disk backend has anything to load, so the in-memory
  // backends skip the key enumeration entirely.
  const PpvStore& store = index_.store(machine);
  if (store.backend() == StorageBackend::kDisk) {
    std::vector<uint64_t> keys;
    for (size_t q = 0; q < queries.size(); ++q) {
      const size_t slot = slot_of(plans[q]);
      if (slot == SIZE_MAX) continue;
      for (size_t owner : plans[q].owners[slot]) {
        CollectOwnerKeys(owner, queries[q], keys);
      }
    }
    store.Prefetch(keys);
  }

  // One accumulator reused across the batch (Clear is O(touched)).
  DenseAccumulator acc(index_.hierarchy().num_nodes());
  ByteWriter writer;
  for (size_t q = 0; q < queries.size(); ++q) {
    const size_t slot = slot_of(plans[q]);
    if (slot == SIZE_MAX) continue;
    // One fragment per covered owner, each folded with the exact loop the
    // owner itself would run — absorbed owners differ only in which store
    // the (replicated) vectors are read from, never in fold order.
    for (size_t owner : plans[q].owners[slot]) {
      AccumulateOwner(machine, owner, queries[q], acc);
      acc.ToSparse().SerializeTo(writer);
      acc.Clear();
    }
  }
  return writer.Release();
}

void HgpaQueryEngine::AccumulateOwner(size_t machine, size_t owner,
                                      std::span<const Preference> preferences,
                                      DenseAccumulator& acc) const {
  const Hierarchy& hierarchy = index_.hierarchy();
  const PpvStore& store = index_.store(machine);
  const double alpha = index_.options().ppr.alpha;

  const auto& my_hubs = index_.hubs_on_machine(owner);

  for (const Preference& pref : preferences) {
    NodeId query = pref.node;
    double query_weight = pref.weight;
    if (query_weight == 0.0) continue;

    // Eq. 7 inner sums: for every subgraph on the query chain, fold this
    // machine's share of its hubs (Algorithm 1 lines 2-5). Stored hub partial
    // vectors carry no hub coordinates; instead each hub coordinate h of level
    // m receives the *replacement* value s_u[S_m](h) directly — by the
    // decomposition, r_u(h) = Σ_{j<m} hubsum_j(h) + s_u[S_m](h), and the
    // deeper levels never touch coordinate h again.
    for (SubgraphId sub : hierarchy.Chain(query)) {
      auto it = my_hubs.find(sub);
      if (it == my_hubs.end()) continue;
      for (NodeId hub : it->second) {
        // One paired probe resolves both hub vectors (a hub placed here
        // always stores its skeleton column and partial together). PpvRef
        // pins keep each vector resident for exactly the fold that uses it —
        // under the disk backend the residency cache may evict it the moment
        // the pin drops.
        PpvPair hub_vectors = store.FindPair(sub, hub);
        DPPR_DCHECK(hub_vectors.skeleton);
        DPPR_DCHECK(hub_vectors.partial);
        double s = hub_vectors.skeleton->ValueAt(query);
        if (s == 0.0) continue;
        // Hub-coordinate replacement: coordinate h gets its exact local PPV
        // value at this level.
        acc.Add(hub, query_weight * s);
        // Adjusted skeleton weight S_u(h) = s_u(h) - α·f_u(h) scales the
        // hub's partial vector over the non-hub coordinates.
        if (query == hub) s -= alpha;
        if (s == 0.0) continue;
        acc.AddVector(*hub_vectors.partial, query_weight * s / alpha);
      }
    }

    // Own term (Algorithm 1 lines 6-8): leaf local PPV for non-hubs, the
    // unadjusted partial vector for hubs.
    if (index_.own_vector_machine(query) == owner) {
      SubgraphId final_sub = hierarchy.final_subgraph(query);
      VectorKind kind = hierarchy.is_hub(query) ? VectorKind::kHubPartial
                                                : VectorKind::kOwnVector;
      PpvRef own = store.Find(kind, final_sub, query);
      DPPR_DCHECK(own);
      acc.AddVector(*own, query_weight);
    }
  }
}

std::vector<SparseVector> HgpaQueryEngine::RunDistributed(
    std::span<const std::span<const Preference>> queries,
    std::vector<QueryMetrics>* per_query_metrics,
    QueryMetrics* round_metrics) const {
  const size_t num_queries = queries.size();
  const size_t num_machines = index_.num_machines();
  std::vector<SparseVector> results(num_queries);
  if (num_queries == 0) {
    // Still honor the metrics contract, so callers reusing out-params don't
    // read a previous round's numbers.
    if (round_metrics != nullptr) *round_metrics = QueryMetrics{};
    if (per_query_metrics != nullptr) per_query_metrics->clear();
    return results;
  }

  // Per-query routing plans over the nonzero-weight sources, then the round's
  // participant set: the ascending union of every plan's targets.
  std::vector<QueryRouter::Plan> plans(num_queries);
  std::vector<NodeId> sources;
  for (size_t q = 0; q < num_queries; ++q) {
    sources.clear();
    for (const Preference& pref : queries[q]) {
      if (pref.weight != 0.0) sources.push_back(pref.node);
    }
    plans[q] = router_->Route(sources);
  }
  std::vector<uint8_t> is_participant(num_machines, 0);
  for (const QueryRouter::Plan& plan : plans) {
    for (size_t m : plan.machines) is_participant[m] = 1;
  }
  std::vector<size_t> participants;
  for (size_t m = 0; m < num_machines; ++m) {
    if (is_participant[m]) participants.push_back(m);
  }

  // What broadcast would have shipped for every machine routing skipped: the
  // fixed serialization of an empty fragment.
  const uint64_t empty_fragment_bytes = SparseVector().SerializedBytes();

  QueryMetrics shared;
  std::vector<CommStats> per_query_comm(num_queries);
  if (!participants.empty()) {
    SimCluster::RoundResult round =
        cluster_.RunRoundOn(participants, [&](size_t machine) {
          return MachineTask(machine, queries, plans);
        });

    auto reduce = [&] {
      // Re-walk each participant's (query, owner) serialization order to
      // slice its payload back into per-query owner fragments.
      std::vector<std::vector<std::pair<size_t, SparseVector>>> fragments(
          num_queries);
      for (size_t machine : participants) {
        const auto& payload = round.payloads[machine];
        ByteReader reader(payload.data(), payload.size());
        for (size_t q = 0; q < num_queries; ++q) {
          const QueryRouter::Plan& plan = plans[q];
          auto it = std::lower_bound(plan.machines.begin(),
                                     plan.machines.end(), machine);
          if (it == plan.machines.end() || *it != machine) continue;
          const size_t slot = static_cast<size_t>(it - plan.machines.begin());
          for (size_t owner : plan.owners[slot]) {
            size_t before = reader.remaining();
            fragments[q].emplace_back(owner, SparseVector::Deserialize(reader));
            per_query_comm[q].Record(before - reader.remaining());
          }
        }
        DPPR_CHECK(reader.AtEnd());
      }
      // Reduce every query in OWNER order — the identity plan's machine
      // order. Which physical machine computed a fragment never reorders the
      // floating-point fold, and the owners broadcast would have gathered
      // empty fragments from add nothing, so results stay bit-identical.
      DenseAccumulator acc(index_.graph().num_nodes());
      for (size_t q = 0; q < num_queries; ++q) {
        std::sort(fragments[q].begin(), fragments[q].end(),
                  [](const std::pair<size_t, SparseVector>& a,
                     const std::pair<size_t, SparseVector>& b) {
                    return a.first < b.first;
                  });
        for (const auto& [owner, fragment] : fragments[q]) {
          acc.AddVector(fragment, 1.0);
        }
        results[q] = acc.ToSparse();
        acc.Clear();
      }
    };
    // Timed into coordinator_seconds and the cluster.reduce_us histogram,
    // under a cluster.reduce span in the query's trace context.
    round.metrics.coordinator_seconds =
        SimCluster::TimeReduce(round.round_id, reduce);

    shared.max_machine_seconds = round.metrics.MaxMachineSeconds();
    shared.coordinator_seconds = round.metrics.coordinator_seconds;
    shared.simulated_seconds =
        round.metrics.SimulatedSeconds(cluster_.network());
    shared.comm = round.metrics.to_coordinator;
    shared.round_id = round.round_id;
    shared.machine_seconds = round.metrics.machine_seconds;
  }
  shared.machines = participants;
  shared.machines_contacted = participants.size();
  for (const QueryRouter::Plan& plan : plans) {
    shared.routing_bytes_saved +=
        (num_machines - plan.contributors) * empty_fragment_bytes;
  }
  if (round_metrics != nullptr) *round_metrics = shared;
  if (per_query_metrics != nullptr) {
    per_query_metrics->assign(num_queries, shared);
    for (size_t q = 0; q < num_queries; ++q) {
      QueryMetrics& m = (*per_query_metrics)[q];
      m.comm = per_query_comm[q];
      m.machines = plans[q].machines;
      m.machines_contacted = plans[q].machines.size();
      m.routing_bytes_saved =
          (num_machines - plans[q].contributors) * empty_fragment_bytes;
    }
  }
  return results;
}

SparseVector HgpaQueryEngine::Query(NodeId query, QueryMetrics* metrics) const {
  DPPR_CHECK_LT(query, index_.graph().num_nodes());
  Preference single{query, 1.0};
  std::span<const Preference> preferences{&single, 1};
  return std::move(
      RunDistributed({&preferences, 1}, nullptr, metrics).front());
}

SparseVector HgpaQueryEngine::QueryPreferenceSet(
    std::span<const Preference> preferences, QueryMetrics* metrics) const {
  for (const Preference& p : preferences) {
    DPPR_CHECK_LT(p.node, index_.graph().num_nodes());
  }
  return std::move(
      RunDistributed({&preferences, 1}, nullptr, metrics).front());
}

std::vector<SparseVector> HgpaQueryEngine::QueryPreferenceSetMany(
    std::span<const std::vector<Preference>> queries,
    std::vector<QueryMetrics>* per_query_metrics,
    QueryMetrics* round_metrics) const {
  std::vector<std::span<const Preference>> spans;
  spans.reserve(queries.size());
  for (const std::vector<Preference>& prefs : queries) {
    for (const Preference& p : prefs) {
      DPPR_CHECK_LT(p.node, index_.graph().num_nodes());
    }
    spans.emplace_back(prefs);
  }
  return RunDistributed(spans, per_query_metrics, round_metrics);
}

std::vector<double> HgpaQueryEngine::QueryDense(NodeId query,
                                                QueryMetrics* metrics) const {
  SparseVector sparse = Query(query, metrics);
  std::vector<double> dense(index_.graph().num_nodes(), 0.0);
  sparse.AddScaledTo(dense, 1.0);
  return dense;
}

}  // namespace dppr
