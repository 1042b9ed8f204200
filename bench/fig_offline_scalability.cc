// Offline scalability: the distributed precomputation (one leaf gather plus
// one locality shuffle superstep per hierarchy level) swept over machine
// counts. Paper shape (§6 offline tables): per-machine offline time and space
// drop roughly linearly with machines while total bytes shipped stay flat —
// the offline phase is compute-bound, not network-bound. Every induce runs on
// the subgraph's home machine; shuffled_mb is the record traffic that buys.

#include "bench_util.h"

#include "dppr/core/dist_precompute.h"

namespace {

using namespace dppr;
using namespace dppr::bench;

// Every row precomputes from scratch (that is the measured work), but the
// synthetic dataset is shared across rows.
const Graph& SharedWebGraph() {
  static const Graph* graph = new Graph(LoadDataset("web", 0.3));
  return *graph;
}

Counters OfflineCounters(const DistributedPrecompute::Result& result,
                         size_t machines) {
  return {
      {"machines", static_cast<double>(machines)},
      {"rounds", static_cast<double>(result.offline.rounds)},
      {"exchange_rounds", static_cast<double>(result.offline.exchange_rounds)},
      {"offline_sim_s", result.offline.simulated_seconds},
      {"max_machine_s", result.ledger.MaxSeconds()},
      {"shipped_mb", result.offline.comm.megabytes()},
      {"shuffled_mb", result.offline.shuffled.megabytes()},
      {"induces", static_cast<double>(result.induces)},
      {"space_mb", static_cast<double>(result.MaxMachineBytes()) / (1 << 20)},
  };
}

void RegisterRows() {
  for (size_t machines : {2, 4, 6, 8, 10}) {
    AddRow("offline/web_m" + std::to_string(machines), [=]() -> Counters {
      const Graph& g = SharedWebGraph();
      DistPrecomputeOptions dist;
      dist.num_machines = machines;
      DistributedPrecompute::Result result =
          DistributedPrecompute::RunHgpa(g, HgpaOptions{}, dist);
      return OfflineCounters(result, machines);
    });
  }

  // Interconnect contrast at a fixed cluster size: compute is unchanged, only
  // the modeled transfer of the shipped vectors re-prices.
  struct Preset {
    const char* name;
    NetworkModel net;
  };
  const Preset presets[] = {
      {"lan100", NetworkModel::Lan100Mbit()},
      {"lan1g", NetworkModel::Lan1Gbit()},
      {"dc", NetworkModel::Datacenter()},
  };
  for (const Preset& preset : presets) {
    AddRow(std::string("offline/web_m6_") + preset.name, [=]() -> Counters {
      const Graph& g = SharedWebGraph();
      DistPrecomputeOptions dist;
      dist.num_machines = 6;
      dist.network = preset.net;
      DistributedPrecompute::Result result =
          DistributedPrecompute::RunHgpa(g, HgpaOptions{}, dist);
      return {
          {"offline_sim_s", result.offline.simulated_seconds},
          {"max_machine_s", result.ledger.MaxSeconds()},
          {"shipped_mb", result.offline.comm.megabytes()},
          {"shuffled_mb", result.offline.shuffled.megabytes()},
      };
    });
  }
}

}  // namespace

DPPR_BENCH_MAIN(RegisterRows)
