#ifndef DPPR_CORE_HGPA_H_
#define DPPR_CORE_HGPA_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dppr/core/dist_precompute.h"
#include "dppr/core/placement.h"
#include "dppr/core/precompute.h"
#include "dppr/core/routing.h"
#include "dppr/dist/cluster.h"
#include "dppr/ppr/sparse_vector.h"
#include "dppr/store/ppv_store.h"

namespace dppr {

/// Hot-shard replication policy. Hub (skeleton column, partial vector)
/// pairs are tiny, read-only after precompute, and sit on every query
/// chain's fold path — copying the hottest of them into every machine's
/// store lets the routed query path absorb those owners' folds onto a
/// machine that must run anyway, shrinking most routing sets toward the
/// source's own-vector machine. A pair is replicated whole (the fold needs
/// both halves; a skeleton without its partial absorbs nothing).
struct ReplicationOptions {
  /// Per-machine byte budget for replicated pairs (serialized bytes, the
  /// same ledger unit as MaxMachineBytes). 0 disables replication — the
  /// default, so byte-ledger equivalence across backends is unaffected
  /// unless explicitly asked for.
  size_t budget_bytes = 0;

  /// DPPR_REPLICATE_BYTES (bytes; unset or 0 keeps replication off).
  static ReplicationOptions FromEnv();
};

/// A precomputation distributed onto n simulated machines under a shared
/// PlacementPlan: the paper's hub-node partitioning (Eq. 7) splits every
/// subgraph's hub set evenly across machines, and leaf subgraphs are packed
/// onto machines by greedy least-loaded assignment. The same type serves GPA
/// (flat hierarchy) and HGPA (deep hierarchy), built either from a
/// centralized precomputation (stores reference its vectors) or from a
/// distributed offline run (stores own their vectors).
class HgpaIndex {
 public:
  /// Places `precomputation` onto `num_machines` machines. With the default
  /// referencing backend this is cheap relative to precomputation (vectors
  /// are shared, not copied), so machine sweeps can redistribute one
  /// precomputation many times; retained as the bit-equality oracle for the
  /// distributed offline path. `storage` picks each machine store's backend
  /// (DPPR_STORE=disk spills every placed vector to per-machine spill files).
  static HgpaIndex Distribute(
      std::shared_ptr<const HgpaPrecomputation> precomputation,
      size_t num_machines,
      const StorageOptions& storage = StorageOptions::FromEnv(),
      const ReplicationOptions& replication = ReplicationOptions::FromEnv());

  /// Adopts the machine-owned stores a DistributedPrecompute run produced
  /// (placement is already fixed by the run's PlacementPlan). The offline
  /// ledger carries the run's per-machine compute charges.
  static HgpaIndex FromDistributed(
      DistributedPrecompute::Result result,
      const ReplicationOptions& replication = ReplicationOptions::FromEnv());

  const Graph& graph() const { return *graph_; }
  const Hierarchy& hierarchy() const { return *hierarchy_; }
  const HgpaOptions& options() const { return options_; }
  size_t num_machines() const { return stores_.size(); }

  /// True when the stores own their vectors (distributed offline path);
  /// false when they reference a shared centralized precomputation.
  bool owns_vectors() const { return precomputation_ == nullptr; }

  const PpvStore& store(size_t machine) const { return stores_[machine]; }

  /// The placement the stores follow, shared with the offline run that
  /// produced it and with every QueryRouter built over this index.
  std::shared_ptr<const PlacementPlan> shared_plan() const { return plan_; }

  /// Hubs a machine is responsible for, grouped by subgraph (a view of the
  /// shared plan). Query-time machine work iterates the query chain against
  /// this map.
  const std::unordered_map<SubgraphId, std::vector<NodeId>>& hubs_on_machine(
      size_t machine) const {
    return plan_->machine_hubs[machine];
  }

  /// Machine holding u's own vector (leaf local PPV for non-hubs, the hub
  /// partial vector for hubs), read from the shared plan.
  size_t own_vector_machine(NodeId u) const { return plan_->own_machine[u]; }

  /// Hierarchy as a shared handle (kept alive by the index; lets a router
  /// outlive index moves).
  std::shared_ptr<const Hierarchy> shared_hierarchy() const {
    return hierarchy_;
  }

  /// True when this hub's (skeleton, partial) pair was replicated into every
  /// machine's store under the replication budget.
  bool hub_replicated(SubgraphId sub, NodeId hub) const {
    return replicated_hubs_.count(MakeVectorKey(VectorKind::kHubPartial, sub,
                                                hub)) > 0;
  }
  /// Replicated hub pairs, and the serialized bytes each machine spends
  /// holding the other machines' replicated pairs (≤ the budget).
  size_t num_replicated_hubs() const { return replicated_hubs_.size(); }
  size_t replica_bytes_per_machine() const { return replica_bytes_; }

  /// Per-machine offline time: each vector's compute time charged to the
  /// machine that stores it (§5: "each machine only needs to handle the
  /// nodes assigned to it").
  const MachineTimeLedger& offline_ledger() const { return offline_; }

  /// Paper's space metric: max serialized bytes over machines.
  size_t MaxMachineBytes() const;
  size_t TotalBytes() const;
  std::vector<size_t> BytesPerMachine() const;

  /// Residency counters summed over machine stores (cache hits/misses and
  /// spill bytes read; all hits for in-memory backends). Safe to call while
  /// queries are in flight — this is what ServerStats' cold/warm view reads.
  StorageStats StorageStatsTotal() const;
  /// Serialized bytes currently resident in RAM across machine stores.
  size_t ResidentBytesTotal() const;

 private:
  /// Copies the hottest (subgraph, owner) hub groups — ranked by chain
  /// reach per byte, deterministic tie-break — whole into every other
  /// machine's store until the per-machine budget is full; oversized groups
  /// are skipped and packing continues.
  void ReplicateHotShards(const ReplicationOptions& replication);

  const Graph* graph_ = nullptr;
  std::shared_ptr<const Hierarchy> hierarchy_;
  HgpaOptions options_;
  /// Keep-alive for referencing-mode stores; null when stores_ own vectors.
  std::shared_ptr<const HgpaPrecomputation> precomputation_;
  std::vector<PpvStore> stores_;
  std::shared_ptr<const PlacementPlan> plan_;
  MachineTimeLedger offline_{1};
  /// Keys (kHubPartial-kinded) of the replicated hub pairs.
  std::unordered_set<uint64_t> replicated_hubs_;
  /// Serialized bytes of replicas each non-owner machine holds.
  size_t replica_bytes_ = 0;
};

/// Query statistics reported by the paper's experiments.
struct QueryMetrics {
  /// max over machines of the measured per-machine compute time.
  double max_machine_seconds = 0.0;
  double coordinator_seconds = 0.0;
  /// End-to-end latency under the network model (the paper's "runtime").
  double simulated_seconds = 0.0;
  /// Bytes received by the coordinator (the paper's communication cost).
  CommStats comm;
  /// Machines that actually ran for this query: the plan's target set —
  /// num_machines under broadcast's identity plan (0 when the round was
  /// skipped entirely, e.g. a result-cache hit or a routed all-zero
  /// preference set).
  size_t machines_contacted = 0;
  /// Bytes routing did NOT ship versus broadcast: one empty serialized
  /// fragment per non-contributing machine that a full fan-out would have
  /// gathered anyway. Zero under broadcast.
  uint64_t routing_bytes_saved = 0;
  /// Transport round id of the communication round that answered this query
  /// (shared by every query in a batch; 0 when no round ran).
  uint64_t round_id = 0;
  /// The machines that ran, ascending (all of them under broadcast; the
  /// routed union for a batch, this query's own plan in per-query metrics).
  /// Empty when no round ran.
  std::vector<size_t> machines;
  /// Full-cluster-width measured per-machine compute seconds for the round
  /// (zeros for machines that did not participate). Empty when no round ran.
  std::vector<double> machine_seconds;

  /// Compute-only runtime (machines overlap their sends in a real cluster,
  /// and the paper observes network transfer does not dominate; Appendix B).
  double ComputeSeconds() const {
    return max_machine_seconds + coordinator_seconds;
  }
};

/// Distributed PPV construction (Algorithm 1 + Eq. 6/7): each machine folds
/// the contributions of its hubs along the query node's subgraph chain into
/// one vector and ships it to the coordinator exactly once; the coordinator
/// sums the n replies.
///
/// All query methods are const and safe to call from many threads at once on
/// one shared engine (every round's state is call-local; the underlying
/// SimCluster and ThreadPool support concurrent rounds). Results and each
/// query's fragment traffic are deterministic regardless of interleaving.
/// set_machine_timer is configuration-time only.
class HgpaQueryEngine {
 public:
  /// Takes the index by value: an index is a cheap handle (vector stores
  /// reference the shared precomputation), and owning it keeps the engine
  /// safe to build from temporaries. `transport` picks the message layer the
  /// per-query fragment rounds travel over (DPPR_TRANSPORT=tcp → real
  /// localhost sockets); answers and fragment byte accounting are
  /// bit-identical across backends.
  /// `routing` picks the query fan-out (DPPR_ROUTING; default route — only
  /// contributing shards run each query's round; broadcast, the oracle, is
  /// the router's identity plan over the same round path).
  explicit HgpaQueryEngine(HgpaIndex index, NetworkModel network = {},
                           TransportOptions transport = TransportOptions::FromEnv(),
                           RoutingOptions routing = RoutingOptions::FromEnv());

  RoutingMode routing_mode() const { return router_->mode(); }
  /// The routing table every round is planned with (never null).
  const QueryRouter* router() const { return router_.get(); }

  /// Switches how machine compute time is measured (see SimCluster::TimerKind;
  /// the serving layer uses kThreadCpu so concurrent rounds don't inflate
  /// each other's machine_seconds). Call before serving traffic.
  void set_machine_timer(SimCluster::TimerKind timer) {
    cluster_.set_timer(timer);
  }

  /// Exact PPV of `query` (to the index tolerance), with optional metrics.
  SparseVector Query(NodeId query, QueryMetrics* metrics = nullptr) const;

  /// Dense convenience wrapper (metrics identical to Query).
  std::vector<double> QueryDense(NodeId query, QueryMetrics* metrics = nullptr) const;

  /// One entry of a preference set P: a node and its teleport weight.
  struct Preference {
    NodeId node;
    double weight;
  };

  /// Exact PPV of an arbitrary preference set (the paper's general problem
  /// statement; §1 Eq. 1). By the Jeh–Widom linearity theorem the PPV of P is
  /// the weight-combination of single-node PPVs; each machine folds all of
  /// P's chains locally, so the query still costs one message per machine.
  /// Weights should sum to 1 for a probability vector (not enforced).
  SparseVector QueryPreferenceSet(std::span<const Preference> preferences,
                                  QueryMetrics* metrics = nullptr) const;

  /// Batched form: answers every query in `queries` in ONE communication
  /// round. Each machine ships one payload holding one PPV fragment per
  /// query, so an admission batch of b queries still costs one message per
  /// machine (b·n fewer latency charges than b single rounds pay). Results —
  /// and each query's own fragment bytes — are bit-identical to issuing the
  /// queries one at a time.
  ///
  /// `per_query_metrics` (resized to queries.size() when non-null) reports
  /// per query: comm = that query's own fragments (messages = one per
  /// machine), while the compute/latency fields carry the shared round's
  /// costs (the whole batch waits for the round). `round_metrics` reports
  /// the round once: comm = whole payloads.
  std::vector<SparseVector> QueryPreferenceSetMany(
      std::span<const std::vector<Preference>> queries,
      std::vector<QueryMetrics>* per_query_metrics = nullptr,
      QueryMetrics* round_metrics = nullptr) const;

  const HgpaIndex& index() const { return index_; }

 private:
  /// `machine` computes, for every query whose plan targets it, one fragment
  /// per owner it covers (its own plus absorbed replicated owners), in
  /// (query, owner) order. Disk-backed stores first prefetch every key the
  /// folds will read.
  std::vector<uint8_t> MachineTask(
      size_t machine, std::span<const std::span<const Preference>> queries,
      std::span<const QueryRouter::Plan> plans) const;

  /// Folds owner `owner`'s share of the query — its hubs along every
  /// preference chain plus its own terms — reading vectors from `machine`'s
  /// store. The owner is `machine` itself or a replicated owner absorbed onto
  /// it; the fold order is identical either way, which is what keeps routed
  /// results bit-identical to broadcast.
  void AccumulateOwner(size_t machine, size_t owner,
                       std::span<const Preference> preferences,
                       DenseAccumulator& acc) const;

  /// Appends every storage key owner `owner`'s fold of this query will look
  /// up, in fold order — what MachineTask hands to PpvStore::Prefetch so the
  /// disk backend's cold misses overlap up front instead of serializing
  /// inside AccumulateOwner.
  void CollectOwnerKeys(size_t owner, std::span<const Preference> preferences,
                        std::vector<uint64_t>& keys) const;

  /// The one round path: plan every query, run the union of the plans'
  /// machines, and reduce each query's fragments in owner order.
  std::vector<SparseVector> RunDistributed(
      std::span<const std::span<const Preference>> queries,
      std::vector<QueryMetrics>* per_query_metrics,
      QueryMetrics* round_metrics) const;

  HgpaIndex index_;
  SimCluster cluster_;
  /// Shared (and self-contained) so engine copies and moves stay cheap and
  /// safe.
  std::shared_ptr<const QueryRouter> router_;
};

}  // namespace dppr

#endif  // DPPR_CORE_HGPA_H_
