// Tour of the distributed machinery: one precomputation distributed onto
// 2..10 simulated machines, reporting the paper's four metrics per cluster
// size; the offline phase rebuilt as a true multi-round distributed program;
// and a comparison against the Pregel+-style BSP baseline.

#include <cstdio>

#include "dppr/baseline/bsp_engine.h"
#include "dppr/common/rng.h"
#include "dppr/core/dist_precompute.h"
#include "dppr/core/hgpa.h"
#include "dppr/graph/datasets.h"

int main() {
  using namespace dppr;
  Graph g = WebLike(0.3);
  std::printf("web-like graph: %zu nodes, %zu edges\n\n", g.num_nodes(),
              g.num_edges());

  auto pre = HgpaPrecomputation::RunHgpa(g, HgpaOptions{});
  Rng rng(5);
  std::vector<NodeId> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(static_cast<NodeId>(rng.Uniform(g.num_nodes())));
  }

  std::printf("%-9s %12s %12s %12s %12s\n", "machines", "runtime(ms)",
              "space(MB)", "offline(s)", "comm(KB)");
  for (size_t machines = 2; machines <= 10; machines += 2) {
    HgpaIndex index = HgpaIndex::Distribute(pre, machines);
    HgpaQueryEngine engine(index);
    double runtime_ms = 0;
    double comm_kb = 0;
    for (NodeId q : queries) {
      QueryMetrics metrics;
      engine.Query(q, &metrics);
      runtime_ms += metrics.simulated_seconds * 1e3;
      comm_kb += metrics.comm.kilobytes();
    }
    std::printf("%-9zu %12.2f %12.2f %12.2f %12.1f\n", machines,
                runtime_ms / queries.size(),
                static_cast<double>(index.MaxMachineBytes()) / (1 << 20),
                index.offline_ledger().MaxSeconds(), comm_kb / queries.size());
  }

  // Offline phase, actually distributed: the same hierarchy precomputed by
  // SimCluster supersteps (leaf PPVs, then per level skeleton columns and hub
  // partials), every produced vector shipped as serialized bytes into its
  // machine's own PpvStore. MultiRoundStats is the paper's offline report.
  std::printf("\ndistributed offline phase (multi-round supersteps):\n");
  std::printf("%-9s %7s %12s %12s %12s %12s\n", "machines", "rounds",
              "simulated(s)", "machine(s)", "shipped(KB)", "store(MB)");
  for (size_t machines = 2; machines <= 10; machines += 4) {
    DistPrecomputeOptions dist;
    dist.num_machines = machines;
    DistributedPrecompute::Result offline =
        DistributedPrecompute::RunHgpa(g, HgpaOptions{}, dist);
    std::printf("%-9zu %7zu %12.2f %12.2f %12.1f %12.2f\n", machines,
                offline.offline.rounds, offline.offline.simulated_seconds,
                offline.ledger.MaxSeconds(), offline.offline.comm.kilobytes(),
                static_cast<double>(offline.MaxMachineBytes()) / (1 << 20));
    if (machines == 10) {
      // The machine-owned stores serve queries directly — no centralized
      // precomputation object exists on this path.
      HgpaQueryEngine owned_engine(HgpaIndex::FromDistributed(std::move(offline)));
      QueryMetrics metrics;
      owned_engine.Query(queries[0], &metrics);
      std::printf("query from machine-owned stores: %.2f ms simulated, "
                  "%llu msgs\n", metrics.simulated_seconds * 1e3,
                  static_cast<unsigned long long>(metrics.comm.messages));
    }
  }

  // The locality shuffle, level by level: each machine computes the hub
  // vectors of the subgraphs it is home to and ships every record whose
  // Eq. 7 owner lives elsewhere through one exchange round per level. The
  // hit rate is the fraction of records that were already home — the
  // traffic the shuffle never has to pay.
  {
    DistPrecomputeOptions dist;
    dist.num_machines = 6;
    DistributedPrecompute::Result offline =
        DistributedPrecompute::RunHgpa(g, HgpaOptions{}, dist);
    std::printf("\nlocality shuffle rounds, 6 machines:\n");
    std::printf("%-7s %9s %12s %12s %12s %10s\n", "level", "induces",
                "records", "local", "shuffled(KB)", "home hit");
    for (const auto& level : offline.levels) {
      size_t records = level.local_records + level.shuffled_records;
      std::printf("%-7u %9zu %12zu %12zu %12.1f %9.0f%%\n", level.level,
                  level.induces, records, level.local_records,
                  static_cast<double>(level.shuffled_bytes) / 1024.0,
                  records == 0
                      ? 100.0
                      : 100.0 * static_cast<double>(level.local_records) /
                            static_cast<double>(records));
    }
    std::printf("induces: %zu, every one on the subgraph's home machine\n",
                offline.induces);
  }

  // Same index, three interconnects: the 100 Mbit switch the paper measured
  // on, a gigabit LAN, and a datacenter fabric. Compute is unchanged — only
  // the modeled transfer of the coordinator-bound payloads shifts.
  struct Preset {
    const char* name;
    NetworkModel net;
  };
  const Preset presets[] = {
      {"100 Mbit LAN (paper)", NetworkModel::Lan100Mbit()},
      {"1 Gbit LAN", NetworkModel::Lan1Gbit()},
      {"datacenter", NetworkModel::Datacenter()},
  };
  HgpaIndex sweep_index = HgpaIndex::Distribute(pre, 6);
  std::printf("\nnetwork sweep, 6 machines:\n");
  std::printf("%-22s %14s %14s %12s\n", "link", "simulated(ms)", "compute(ms)",
              "net share");
  for (const Preset& preset : presets) {
    HgpaQueryEngine engine(sweep_index, preset.net);
    double simulated_ms = 0;
    double compute_ms = 0;
    for (NodeId q : queries) {
      QueryMetrics metrics;
      engine.Query(q, &metrics);
      simulated_ms += metrics.simulated_seconds * 1e3;
      compute_ms += metrics.ComputeSeconds() * 1e3;
    }
    simulated_ms /= queries.size();
    compute_ms /= queries.size();
    std::printf("%-22s %14.2f %14.2f %11.0f%%\n", preset.name, simulated_ms,
                compute_ms, 100.0 * (simulated_ms - compute_ms) / simulated_ms);
  }

  // The BSP baseline pays a message wave per superstep instead.
  BspOptions bsp;
  bsp.num_machines = 6;
  BspPpvResult pregel = BspPowerIterationPpv(g, queries[0], PprOptions{}, bsp);
  std::printf("\npregel+-style power iteration, 6 machines: %zu supersteps, "
              "%.0f KB traffic, %.0f ms simulated\n",
              pregel.supersteps, pregel.network_traffic.kilobytes(),
              pregel.simulated_seconds * 1e3);
  std::printf("(HGPA sends one message per machine per query — the whole point)\n");
  return 0;
}
