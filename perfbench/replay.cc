// Per-layer replay of a traced window. Each sampled read is replayed, one
// layer at a time, against the public entry points of that layer, timed from
// here and wrapped in a benchmark span (obs::TraceSpan, so it lands in the
// DPPR_TRACE timeline beside the program's own spans):
//
//   core   QueryRouter::Route, HgpaQueryEngine::QueryPreferenceSetMany at the
//          realized batch size (QueryMetrics gives max-machine and
//          coordinator time)
//   dist   SimCluster::RunRoundOn with no-op tasks on the read's machines
//   net    the same round carrying the read's fragment bytes, minus the
//          empty round
//   store  PpvStore::Prefetch + FindPair/Find over the read's keys
//   ppr    DenseAccumulator Add/AddVector + ToSparse over those vectors
//
// Self times per read: serve = latency - replayed round; core = route +
// coordinator reduce; dist, net as above; store and ppr of the slowest
// machine (machines run in parallel, the slowest gates the round);
// unattributed = latency - all of those. Means therefore add up to the mean
// latency exactly; medians are reported per layer.

#include <algorithm>
#include <numeric>

#include "bench.h"
#include "dppr/dist/cluster.h"
#include "dppr/obs/trace.h"
#include "dppr/ppr/sparse_vector.h"

namespace perfbench {

using namespace dppr;

namespace {

double Ms(Clock::time_point start) { return SecondsSince(start) * 1e3; }

struct MachineReplay {
  double prefetch_ms = 0.0;
  double findpair_ms = 0.0;
  double fold_ms = 0.0;
  size_t entries = 0;
};

/// Store + fold replay of one owner set on one machine, mirroring the
/// engine's fold order.
MachineReplay ReplayMachine(const HgpaIndex& index, size_t machine,
                            std::span<const size_t> owners,
                            std::span<const HgpaQueryEngine::Preference> prefs,
                            DenseAccumulator& acc) {
  const Hierarchy& hierarchy = index.hierarchy();
  const PpvStore& store = index.store(machine);
  MachineReplay out;

  struct HubKey {
    NodeId query;
    double weight;
    SubgraphId sub;
    NodeId hub;
  };
  struct OwnKey {
    double weight;
    VectorKind kind;
    SubgraphId sub;
    NodeId node;
  };
  std::vector<uint64_t> keys;
  std::vector<HubKey> hub_keys;
  std::vector<OwnKey> own_keys;
  for (size_t owner : owners) {
    const auto& owner_hubs = index.hubs_on_machine(owner);
    for (const auto& pref : prefs) {
      if (pref.weight == 0.0) continue;
      for (SubgraphId sub : hierarchy.Chain(pref.node)) {
        auto it = owner_hubs.find(sub);
        if (it == owner_hubs.end()) continue;
        for (NodeId hub : it->second) {
          keys.push_back(MakeVectorKey(VectorKind::kSkeletonColumn, sub, hub));
          keys.push_back(MakeVectorKey(VectorKind::kHubPartial, sub, hub));
          hub_keys.push_back({pref.node, pref.weight, sub, hub});
        }
      }
      if (index.own_vector_machine(pref.node) == owner) {
        const SubgraphId final_sub = hierarchy.final_subgraph(pref.node);
        const VectorKind kind = hierarchy.is_hub(pref.node)
                                    ? VectorKind::kHubPartial
                                    : VectorKind::kOwnVector;
        keys.push_back(MakeVectorKey(kind, final_sub, pref.node));
        own_keys.push_back({pref.weight, kind, final_sub, pref.node});
      }
    }
  }

  Clock::time_point start = Clock::now();
  {
    obs::TraceSpan span(obs::MachineLane(machine), "perfbench.store.prefetch");
    store.Prefetch(keys);
  }
  out.prefetch_ms = Ms(start);

  // Pins held until the fold, so the fold reads what the lookups resolved.
  std::vector<PpvPair> hub_vectors;
  std::vector<PpvRef> own_vectors;
  start = Clock::now();
  {
    obs::TraceSpan span(obs::MachineLane(machine), "perfbench.store.findpair");
    for (const HubKey& key : hub_keys) {
      hub_vectors.push_back(store.FindPair(key.sub, key.hub));
    }
    for (const OwnKey& key : own_keys) {
      own_vectors.push_back(store.Find(key.kind, key.sub, key.node));
    }
  }
  out.findpair_ms = Ms(start);

  const double alpha = index.options().ppr.alpha;
  start = Clock::now();
  {
    obs::TraceSpan span(obs::MachineLane(machine), "perfbench.ppr.fold");
    for (size_t t = 0; t < hub_keys.size(); ++t) {
      const HubKey& key = hub_keys[t];
      double s = hub_vectors[t].skeleton->ValueAt(key.query);
      if (s == 0.0) continue;
      acc.Add(key.hub, key.weight * s);
      if (key.query == key.hub) s -= alpha;
      if (s == 0.0) continue;
      acc.AddVector(*hub_vectors[t].partial, key.weight * s / alpha);
      out.entries += hub_vectors[t].partial->size();
    }
    for (size_t t = 0; t < own_keys.size(); ++t) {
      acc.AddVector(*own_vectors[t], own_keys[t].weight);
      out.entries += own_vectors[t]->size();
    }
    SparseVector fragment = acc.ToSparse();
    acc.Clear();
  }
  out.fold_ms = Ms(start);
  return out;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

}  // namespace

void ReplayLayers(const HgpaQueryEngine& engine, TransportBackend transport,
                  std::span<const ReplaySample> samples,
                  std::span<const size_t> batch_sizes, MetricTable& out) {
  const HgpaIndex& index = engine.index();
  const QueryRouter* router = engine.router();
  DPPR_CHECK(router != nullptr);
  SimCluster cluster(index.num_machines(), NetworkModel{}, /*sequential=*/false,
                     TransportOptions{transport});
  DenseAccumulator acc(index.graph().num_nodes());

  // Per-read self times (ms unless noted).
  std::vector<double> latency, serve_self, core_self, dist_self, net_self,
      store_self, ppr_self, unattributed;
  // Layer figures over round-served reads only.
  std::vector<double> route_us, round_ms, max_machine_ms, coordinator_ms,
      empty_round_us, payload_round_us, findpair_us, prefetch_ms, machines;
  double fold_ms_total = 0.0;
  size_t fold_entries = 0;

  std::vector<const ReplaySample*> round_served;
  for (const ReplaySample& sample : samples) {
    latency.push_back(sample.latency_ms);
    if (sample.cache_hit) {
      serve_self.push_back(sample.latency_ms);
      for (auto* v : {&core_self, &dist_self, &net_self, &store_self,
                      &ppr_self, &unattributed}) {
        v->push_back(0.0);
      }
    } else {
      round_served.push_back(&sample);
    }
  }

  size_t next_batch = 0;
  for (size_t begin = 0; begin < round_served.size();) {
    const size_t want = batch_sizes.empty()
                            ? 1
                            : batch_sizes[next_batch++ % batch_sizes.size()];
    const size_t end = std::min(round_served.size(), begin + std::max<size_t>(1, want));
    std::vector<std::vector<HgpaQueryEngine::Preference>> batch;
    for (size_t i = begin; i < end; ++i) {
      batch.push_back(Preferences(*round_served[i]->request));
    }
    std::vector<QueryMetrics> per_query;
    QueryMetrics round;
    Clock::time_point start = Clock::now();
    {
      obs::TraceSpan span(obs::kCoordinatorLane, "perfbench.core.round");
      engine.QueryPreferenceSetMany(batch, &per_query, &round);
    }
    const double round_time_ms = Ms(start);

    for (size_t i = begin; i < end; ++i) {
      const auto& prefs = batch[i - begin];
      const QueryMetrics& metrics = per_query[i - begin];
      std::vector<NodeId> sources;
      for (const auto& p : prefs) {
        if (p.weight != 0.0) sources.push_back(p.node);
      }
      start = Clock::now();
      QueryRouter::Plan plan;
      {
        obs::TraceSpan span(obs::kCoordinatorLane, "perfbench.core.route");
        plan = router->Route(sources);
      }
      const double route = Ms(start);

      const auto noop = [](size_t) { return std::vector<uint8_t>{}; };
      start = Clock::now();
      if (!plan.machines.empty()) {
        obs::TraceSpan span(obs::kCoordinatorLane, "perfbench.dist.empty_round");
        cluster.RunRoundOn(plan.machines, noop);
      }
      const double empty = Ms(start);
      const size_t fragment_bytes =
          plan.machines.empty() ? 0 : metrics.comm.bytes / plan.machines.size();
      const auto payload = [fragment_bytes](size_t) {
        return std::vector<uint8_t>(fragment_bytes, 0x5a);
      };
      start = Clock::now();
      if (!plan.machines.empty()) {
        obs::TraceSpan span(obs::kCoordinatorLane, "perfbench.net.payload_round");
        cluster.RunRoundOn(plan.machines, payload);
      }
      const double with_payload = Ms(start);

      MachineReplay slowest;
      double prefetch_sum = 0.0, findpair_sum = 0.0;
      for (size_t k = 0; k < plan.machines.size(); ++k) {
        MachineReplay m =
            ReplayMachine(index, plan.machines[k], plan.owners[k], prefs, acc);
        prefetch_sum += m.prefetch_ms;
        findpair_sum += m.findpair_ms;
        fold_ms_total += m.fold_ms;
        fold_entries += m.entries;
        if (m.prefetch_ms + m.findpair_ms + m.fold_ms >
            slowest.prefetch_ms + slowest.findpair_ms + slowest.fold_ms) {
          slowest = m;
        }
      }

      const double l = round_served[i]->latency_ms;
      const double coordinator = metrics.coordinator_seconds * 1e3;
      const double serve = l - round_time_ms;
      const double core = route + coordinator;
      const double net = with_payload - empty;
      const double store = slowest.prefetch_ms + slowest.findpair_ms;
      const double ppr = slowest.fold_ms;
      serve_self.push_back(serve);
      core_self.push_back(core);
      dist_self.push_back(empty);
      net_self.push_back(net);
      store_self.push_back(store);
      ppr_self.push_back(ppr);
      unattributed.push_back(l - serve - core - empty - net - store - ppr);

      route_us.push_back(route * 1e3);
      round_ms.push_back(round_time_ms);
      max_machine_ms.push_back(metrics.max_machine_seconds * 1e3);
      coordinator_ms.push_back(coordinator);
      empty_round_us.push_back(empty * 1e3);
      payload_round_us.push_back(net * 1e3);
      findpair_us.push_back(findpair_sum * 1e3);
      prefetch_ms.push_back(prefetch_sum);
      machines.push_back(static_cast<double>(metrics.machines_contacted));
    }
    begin = end;
  }

  out.SetPercentile("serve.self_ms.p50", serve_self, 0.5, "ms");
  out.SetPercentile("core.route_us.p50", route_us, 0.5, "us");
  out.Set("core.machines_per_query", Mean(machines), "count", machines.size());
  out.SetPercentile("core.round_ms.p50", round_ms, 0.5, "ms");
  out.SetPercentile("core.round_ms.p99", round_ms, 0.99, "ms");
  out.SetPercentile("core.max_machine_ms.p50", max_machine_ms, 0.5, "ms");
  out.SetPercentile("core.coordinator_ms.p50", coordinator_ms, 0.5, "ms");
  out.SetPercentile("dist.empty_round_us.p50", empty_round_us, 0.5, "us");
  out.SetPercentile("net.payload_round_us.p50", payload_round_us, 0.5, "us");
  out.SetPercentile("store.findpair_us.p50", findpair_us, 0.5, "us");
  out.SetPercentile("store.prefetch_ms.p50", prefetch_ms, 0.5, "ms");
  out.Set("ppr.fold_ns_per_entry",
          fold_entries > 0 ? fold_ms_total * 1e6 / static_cast<double>(fold_entries)
                           : 0.0,
          "ns", round_ms.size());
  out.Set("ppr.entries_per_query",
          round_ms.empty() ? 0.0
                           : static_cast<double>(fold_entries) /
                                 static_cast<double>(round_ms.size()),
          "count", round_ms.size());
  out.SetPercentile("unattributed_ms.p50", unattributed, 0.5, "ms");
  out.Set("replay.e2e_ms.mean", Mean(latency), "ms", latency.size());
  out.Set("replay.serve.self_ms.mean", Mean(serve_self), "ms", serve_self.size());
  out.Set("replay.core.self_ms.mean", Mean(core_self), "ms", core_self.size());
  out.Set("replay.dist.self_ms.mean", Mean(dist_self), "ms", dist_self.size());
  out.Set("replay.net.self_ms.mean", Mean(net_self), "ms", net_self.size());
  out.Set("replay.store.self_ms.mean", Mean(store_self), "ms", store_self.size());
  out.Set("replay.ppr.self_ms.mean", Mean(ppr_self), "ms", ppr_self.size());
  out.Set("replay.unattributed_ms.mean", Mean(unattributed), "ms",
          unattributed.size());
}

}  // namespace perfbench
