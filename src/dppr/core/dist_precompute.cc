#include "dppr/core/dist_precompute.h"

#include <algorithm>
#include <utility>

#include "dppr/common/serialize.h"
#include "dppr/common/timer.h"
#include "dppr/graph/local_graph.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"

namespace dppr {
namespace {

/// Registry handles for the offline phase, resolved once (same pattern as
/// cluster.cc's ClusterMetrics). The shuffle counters mirror the
/// cluster.exchange.* transport-side counters but count *records*, the unit
/// the placement actually routes.
struct ShuffleMetrics {
  obs::Counter* rounds;
  obs::Counter* bytes;
  obs::Counter* messages;
  obs::Counter* records;
  obs::Counter* local_records;
  obs::Counter* induces;

  static const ShuffleMetrics& Get() {
    static const ShuffleMetrics metrics = [] {
      auto& r = obs::MetricsRegistry::Global();
      return ShuffleMetrics{r.GetCounter("precompute.shuffle.rounds"),
                            r.GetCounter("precompute.shuffle.bytes"),
                            r.GetCounter("precompute.shuffle.messages"),
                            r.GetCounter("precompute.shuffle.records"),
                            r.GetCounter("precompute.shuffle.local_records"),
                            r.GetCounter("precompute.induce.total")};
    }();
    return metrics;
  }
};

/// Serializes one record and returns its wire size (what the byte ledgers
/// and LevelStats charge for it).
size_t AppendRecord(ByteWriter& writer, VectorKind kind, SubgraphId sub,
                    NodeId node, double seconds, SparseVector vec) {
  const size_t before = writer.size();
  VectorRecord record;
  record.kind = kind;
  record.sub = sub;
  record.node = node;
  record.seconds = seconds;
  record.vec = std::move(vec);
  record.SerializeTo(writer);
  return writer.size() - before;
}

size_t Sum(const std::vector<size_t>& values) {
  size_t total = 0;
  for (size_t v : values) total += v;
  return total;
}

}  // namespace

size_t DistributedPrecompute::Result::MaxMachineBytes() const {
  size_t max = 0;
  for (const auto& store : stores) {
    max = std::max(max, store.TotalSerializedBytes());
  }
  return max;
}

size_t DistributedPrecompute::Result::TotalBytes() const {
  size_t total = 0;
  for (const auto& store : stores) total += store.TotalSerializedBytes();
  return total;
}

DistributedPrecompute::Result DistributedPrecompute::Run(
    const Graph& graph, Hierarchy hierarchy, const HgpaOptions& options,
    const DistPrecomputeOptions& dist) {
  const size_t num_machines = dist.num_machines;
  DPPR_CHECK_GE(num_machines, 1u);

  Result result;
  result.graph = &graph;
  result.hierarchy = std::make_shared<const Hierarchy>(std::move(hierarchy));
  result.options = options;
  result.plan = PlacementPlan::Build(*result.hierarchy, num_machines);
  const PlacementPlan& plan = *result.plan;
  result.stores.reserve(num_machines);
  for (size_t m = 0; m < num_machines; ++m) result.stores.emplace_back(dist.storage);
  result.ledger = MachineTimeLedger(num_machines);

  const Hierarchy& h = *result.hierarchy;
  SimCluster cluster(num_machines, dist.network, dist.sequential,
                     dist.transport);
  const ShuffleMetrics& shuffle_metrics = ShuffleMetrics::Get();

  // Streams one machine's records into its store (straight to its spill
  // file under the disk backend — the coordinator never materializes a
  // machine's index in RAM) and charges each record's compute time to that
  // machine's offline ledger. Record order within a payload is the producing
  // task's deterministic iteration order.
  auto ingest = [&](size_t machine, const std::vector<uint8_t>& payload) {
    ByteReader reader(payload);
    while (!reader.AtEnd()) {
      result.ledger.Add(machine, result.stores[machine].IngestFrom(reader));
    }
  };

  // Superstep 1: leaf local PPVs, gathered — the leaf packing makes every
  // leaf's home also the owner of all its nodes, so there is nothing to
  // shuffle. The coordinator-lane spans here and below name each superstep,
  // so a DPPR_TRACE of an offline run reads as leaf/shuffle phases over the
  // per-machine cluster.machine spans.
  {
    obs::TraceSpan span(obs::kCoordinatorLane, "precompute.leaf_superstep");
    cluster.RunRound(
        [&](size_t machine) {
          ByteWriter writer;
          for (SubgraphId leaf : plan.machine_leaves[machine]) {
            const HierarchySubgraph& sub = h.subgraph(leaf);
            LocalGraph lg = LocalGraph::Induce(graph, sub.nodes);
            for (NodeId u : sub.nodes) {
              WallTimer timer;
              SparseVector vec = ComputeLeafVector(lg, u, options);
              AppendRecord(writer, VectorKind::kOwnVector, leaf, u,
                           timer.ElapsedSeconds(), std::move(vec));
            }
          }
          return writer.Release();
        },
        [&](SimCluster::RoundResult& round) {
          for (size_t m = 0; m < num_machines; ++m) {
            ingest(m, round.payloads[m]);
          }
        },
        &result.offline);
    for (size_t m = 0; m < num_machines; ++m) {
      result.induces += plan.machine_leaves[m].size();
    }
    shuffle_metrics.induces->Add(result.induces);
  }

  // Per hierarchy level, deepest first. Levels whose subgraphs have no hubs
  // cost nothing and are skipped entirely rather than billed as empty rounds.
  std::vector<uint32_t> hub_levels;
  for (const auto& sub : h.subgraphs()) {
    if (!sub.hubs.empty()) hub_levels.push_back(sub.level);
  }
  std::sort(hub_levels.begin(), hub_levels.end(), std::greater<>());
  hub_levels.erase(std::unique(hub_levels.begin(), hub_levels.end()),
                   hub_levels.end());

  const bool skeleton_in_edges = PrecomputeNeedsInEdges(options);
  for (uint32_t level : hub_levels) {
    // Per-machine tallies written only from each machine's own slot, so the
    // parallel scheduler never races them; folded into LevelStats after the
    // round's barrier.
    std::vector<size_t> induces_m(num_machines, 0);
    std::vector<size_t> local_records_m(num_machines, 0);
    std::vector<size_t> local_bytes_m(num_machines, 0);
    std::vector<size_t> shuffled_records_m(num_machines, 0);
    std::vector<size_t> shuffled_bytes_m(num_machines, 0);

    // One shuffle superstep: each machine induces its *home* subgraphs at
    // this level exactly once, computes the skeleton column and hub partial
    // for every hub of the subgraph, and routes each record to the hub's
    // Eq. 7 owner — owner == home stays in the self-addressed slot (never
    // crosses the network), everything else rides the exchange. The receive
    // side ingests (dst, src) in index order, so store contents are
    // independent of task scheduling.
    obs::TraceSpan span(obs::kCoordinatorLane, "precompute.shuffle_superstep");
    span.Arg("level", level);
    SimCluster::ExchangeResult round = cluster.RunExchange(
        [&](size_t machine) {
          std::vector<ByteWriter> outbox(num_machines);
          for (const auto& sub : h.subgraphs()) {
            if (sub.level != level || sub.hubs.empty()) continue;
            if (plan.home_machine[sub.id] != machine) continue;
            LocalGraph lg =
                LocalGraph::Induce(graph, sub.nodes, skeleton_in_edges);
            ++induces_m[machine];
            // ComputeHubPartial's forward push reads only out-adjacency, so
            // sharing the (possibly in-edge-bearing) skeleton induce is
            // bit-safe.
            const std::vector<NodeId> local_hubs = LocalizeHubs(lg, sub);
            for (NodeId hub : sub.hubs) {
              const size_t dst = plan.own_machine[hub];
              size_t bytes = 0;
              {
                WallTimer timer;
                SparseVector vec = ComputeSkeletonColumn(lg, hub, options);
                bytes += AppendRecord(outbox[dst], VectorKind::kSkeletonColumn,
                                      sub.id, hub, timer.ElapsedSeconds(),
                                      std::move(vec));
              }
              {
                WallTimer timer;
                SparseVector vec =
                    ComputeHubPartial(lg, sub, local_hubs, hub, options);
                bytes += AppendRecord(outbox[dst], VectorKind::kHubPartial,
                                      sub.id, hub, timer.ElapsedSeconds(),
                                      std::move(vec));
              }
              if (dst == machine) {
                local_records_m[machine] += 2;
                local_bytes_m[machine] += bytes;
              } else {
                shuffled_records_m[machine] += 2;
                shuffled_bytes_m[machine] += bytes;
              }
            }
          }
          std::vector<std::vector<uint8_t>> payloads;
          payloads.reserve(num_machines);
          for (ByteWriter& writer : outbox) payloads.push_back(writer.Release());
          return payloads;
        },
        [&](SimCluster::ExchangeResult& exchanged) {
          for (size_t dst = 0; dst < num_machines; ++dst) {
            for (size_t src = 0; src < num_machines; ++src) {
              ingest(dst, exchanged.inboxes[dst][src]);
            }
          }
        },
        &result.offline);
    shuffle_metrics.rounds->Increment();
    shuffle_metrics.bytes->Add(round.metrics.shuffled.bytes);
    shuffle_metrics.messages->Add(round.metrics.shuffled.messages);

    Result::LevelStats level_stats;
    level_stats.level = level;
    level_stats.induces = Sum(induces_m);
    level_stats.local_records = Sum(local_records_m);
    level_stats.local_bytes = Sum(local_bytes_m);
    level_stats.shuffled_records = Sum(shuffled_records_m);
    level_stats.shuffled_bytes = Sum(shuffled_bytes_m);
    result.induces += level_stats.induces;
    shuffle_metrics.induces->Add(level_stats.induces);
    shuffle_metrics.records->Add(level_stats.shuffled_records);
    shuffle_metrics.local_records->Add(level_stats.local_records);
    result.levels.push_back(level_stats);
  }

  return result;
}

DistributedPrecompute::Result DistributedPrecompute::RunHgpa(
    const Graph& graph, const HgpaOptions& options,
    const DistPrecomputeOptions& dist) {
  return Run(graph, Hierarchy::Build(graph, options.hierarchy), options, dist);
}

DistributedPrecompute::Result DistributedPrecompute::RunGpa(
    const Graph& graph, uint32_t num_subgraphs, const HgpaOptions& options,
    const DistPrecomputeOptions& dist) {
  Hierarchy flat =
      Hierarchy::BuildFlat(graph, num_subgraphs, options.hierarchy.partition);
  return Run(graph, std::move(flat), options, dist);
}

}  // namespace dppr
