#ifndef DPPR_CORE_DIST_PRECOMPUTE_H_
#define DPPR_CORE_DIST_PRECOMPUTE_H_

#include <memory>
#include <vector>

#include "dppr/core/placement.h"
#include "dppr/core/precompute.h"
#include "dppr/dist/cluster.h"
#include "dppr/graph/graph.h"
#include "dppr/partition/hierarchy.h"
#include "dppr/store/ppv_store.h"

namespace dppr {

/// The offline phase's compute-site policy. Locality is the only one: each
/// machine induces only the subgraphs it is *home* to
/// (PlacementPlan::home_machine), computes every hub for them, and ships each
/// record to its Eq. 7 owner in one machine→machine exchange round per level.
/// The type survives only because external callers still assign it;
/// nothing in the library reads it.
enum class OfflinePlacement : uint8_t { kLocality = 0 };

struct DistPrecomputeOptions {
  size_t num_machines = 4;
  /// Network model the offline MultiRoundStats are priced under.
  NetworkModel network{};
  /// Run each round's machine tasks in machine order on the calling thread
  /// (fully deterministic scheduling) instead of on the process ThreadPool.
  bool sequential = false;
  /// Backend of each machine's store. Defaults to in-memory owning;
  /// DPPR_STORE=disk spills every ingested record to per-machine spill files
  /// instead, so coordinator RAM stays bounded by one record per ingest.
  StorageOptions storage = StorageOptions::FromEnv(StorageBackend::kMemoryOwned);
  /// Message layer every superstep's payloads travel over. Defaults to the
  /// in-process hand-off; DPPR_TRANSPORT=tcp moves them through real
  /// localhost sockets. Produced vectors and byte ledgers are bit-identical
  /// either way (net_equivalence_test enforces this).
  TransportOptions transport = TransportOptions::FromEnv();
  /// Unread: locality is the only offline placement (see OfflinePlacement).
  OfflinePlacement locality = OfflinePlacement::kLocality;
};

/// The paper's *distributed offline phase* (§5): plans per-machine work from
/// the hierarchy (PlacementPlan) and executes it as SimCluster supersteps —
/// one gather round of leaf local PPVs, then one shuffle round per hierarchy
/// level (deepest first): each home machine induces its subgraphs once,
/// computes skeleton column + hub partial for every hub, and ships each
/// VectorRecord to its Eq. 7 owner via RunExchange. The record lands in its
/// owner's PpvStore, and the folded MultiRoundStats — rounds, simulated
/// seconds, bytes shipped, with shuffle traffic in its own column — are the
/// numbers the paper's offline tables measure.
///
/// The produced vectors are bit-identical to HgpaPrecomputation::Run on the
/// same hierarchy (both call the same compute kernels and the wire format
/// round-trips doubles exactly); the centralized path remains the oracle.
class DistributedPrecompute {
 public:
  struct Result {
    const Graph* graph = nullptr;
    std::shared_ptr<const Hierarchy> hierarchy;
    HgpaOptions options;
    /// Machine m's vectors, owned (deserialized from its round payloads).
    std::vector<PpvStore> stores;
    /// The placement the run followed; shared with the index built from it.
    std::shared_ptr<const PlacementPlan> plan;
    /// Offline cost report: one entry accumulated per superstep.
    MultiRoundStats offline;
    /// Per hub level (deepest first): what the level's superstep induced and
    /// shipped. `local_*` count records whose owner is their compute site
    /// (they stay in the self-addressed exchange slot); `shuffled_*` count
    /// the records that crossed to another machine.
    struct LevelStats {
      uint32_t level = 0;
      size_t induces = 0;
      size_t local_records = 0;
      size_t local_bytes = 0;
      size_t shuffled_records = 0;
      size_t shuffled_bytes = 0;
    };
    std::vector<LevelStats> levels;
    /// Σ induces across all supersteps, leaf round included.
    size_t induces = 0;
    /// Per-vector compute time charged to the machine that stores it (same
    /// semantics as HgpaIndex::offline_ledger on the centralized path).
    MachineTimeLedger ledger{1};

    size_t num_machines() const { return stores.size(); }
    /// Paper's space metric: max serialized bytes over machines.
    size_t MaxMachineBytes() const;
    size_t TotalBytes() const;
  };

  /// Runs the distributed offline phase for `hierarchy` over `graph`.
  /// The graph must outlive the returned Result.
  static Result Run(const Graph& graph, Hierarchy hierarchy,
                    const HgpaOptions& options, const DistPrecomputeOptions& dist);

  /// HGPA over a fresh hierarchy built with options.hierarchy.
  static Result RunHgpa(const Graph& graph, const HgpaOptions& options,
                        const DistPrecomputeOptions& dist);

  /// GPA: flat one-level partition into `num_subgraphs` parts (§3).
  static Result RunGpa(const Graph& graph, uint32_t num_subgraphs,
                       const HgpaOptions& options,
                       const DistPrecomputeOptions& dist);
};

}  // namespace dppr

#endif  // DPPR_CORE_DIST_PRECOMPUTE_H_
