#ifndef DPPR_CORE_ROUTING_H_
#define DPPR_CORE_ROUTING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dppr/core/placement.h"
#include "dppr/partition/hierarchy.h"

namespace dppr {

class HgpaIndex;

/// How HgpaQueryEngine picks the machines of a query round.
enum class RoutingMode : uint8_t {
  /// Run the round only on machines that can contribute to the query's
  /// chains (the routing-table plan below). Answers are bit-identical to
  /// broadcast; comm and machine time shrink to the contributing shards.
  kRoute = 0,
  /// Fan every query out to all n machines: the router emits the identity
  /// plan (machine m covers owner m). Kept as the bit-equality oracle.
  kBroadcast = 1,
};

const char* RoutingModeName(RoutingMode mode);

/// Mode selection. `FromEnv` reads DPPR_ROUTING ("route" | "broadcast";
/// unset keeps the fallback, anything else DPPR_CHECK-fails — same
/// refuse-to-guess policy as DPPR_STORE / DPPR_TRANSPORT).
struct RoutingOptions {
  RoutingMode mode = RoutingMode::kRoute;

  static RoutingOptions FromEnv(RoutingMode fallback = RoutingMode::kRoute);
};

/// Query routing table derived from the shared placement: which machines
/// hold any vector a given source set's fold needs (the source's own-vector
/// machine plus every machine owning hubs on the source's subgraph chain),
/// and which of those owners' vectors are replicated everywhere so their
/// fold can be absorbed onto another contributing machine instead of waking
/// their own. Under RoutingMode::kBroadcast every plan is the identity plan.
///
/// Self-contained: the router shares the index's hierarchy and placement
/// plan and derives only its per-subgraph contributor lists, so it stays
/// valid when the engine that built it is moved.
class QueryRouter {
 public:
  explicit QueryRouter(const HgpaIndex& index,
                       RoutingMode mode = RoutingMode::kRoute);

  /// One query's routed round. `machines` is the sorted set of physical
  /// machines to run; `owners[i]` lists, ascending, the logical owner
  /// machines whose fragments machines[i] computes and ships — its own,
  /// plus any fully-replicated owners absorbed onto it. Owner lists are
  /// disjoint and their union is the full contributor set, so the
  /// coordinator can fold fragments in owner order and reproduce the
  /// broadcast reduce bit for bit.
  struct Plan {
    std::vector<size_t> machines;
    std::vector<std::vector<size_t>> owners;
    /// Number of logical contributors (Σ |owners[i]|); n - contributors
    /// machines would have shipped an empty fragment under broadcast.
    size_t contributors = 0;
  };

  /// Routing plan for the nonzero-weight sources of one query. Under
  /// kRoute an empty `sources` yields an empty plan: the round can be
  /// skipped outright, which is bit-neutral because skipped machines only
  /// ever contribute empty fragments. Under kBroadcast every query, empty
  /// source sets included, gets the identity plan: machines 0..n-1, machine
  /// m covering owner m alone, contributors = n.
  Plan Route(std::span<const NodeId> sources) const;

  RoutingMode mode() const { return mode_; }
  size_t num_machines() const { return plan_->num_machines(); }

 private:
  /// One machine owning hubs in a subgraph; `absorbable` when every hub it
  /// owns there is replicated on all machines (its fold for this subgraph
  /// can run anywhere).
  struct SubContributor {
    uint32_t machine;
    uint8_t absorbable;
  };

  RoutingMode mode_;
  std::shared_ptr<const Hierarchy> hierarchy_;
  std::shared_ptr<const PlacementPlan> plan_;
  /// Per subgraph, machine-ascending: machines owning hubs there (kRoute
  /// only).
  std::vector<std::vector<SubContributor>> sub_contributors_;
  /// Per node: the own term is readable on every machine (hubs whose
  /// (skeleton, partial) pair is replicated; never true for leaf own
  /// vectors, which are not replicated). kRoute only.
  std::vector<uint8_t> own_term_replicated_;
};

}  // namespace dppr

#endif  // DPPR_CORE_ROUTING_H_
