#include "dppr/partition/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>

#include "dppr/common/rng.h"
#include "dppr/graph/generators.h"
#include "dppr/partition/bisect.h"
#include "dppr/partition/coarsen.h"
#include "dppr/partition/kway.h"
#include "dppr/partition/wgraph.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;

TEST(WGraph, FromLocalGraphSymmetrizesAndWeights) {
  // 0 -> 1, 1 -> 0 collapse into one undirected edge of weight 2.
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(1, 2);
  Graph g = builder.Build();
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  ASSERT_EQ(wg.num_nodes(), 3u);
  ASSERT_EQ(wg.neighbors(0).size(), 1u);
  EXPECT_EQ(wg.neighbors(0)[0].to, 1u);
  EXPECT_EQ(wg.neighbors(0)[0].weight, 2u);
  EXPECT_EQ(wg.neighbors(1).size(), 2u);
}

TEST(WGraph, SelfLoopsIgnored) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0);
  builder.AddEdge(0, 1);
  Graph g = builder.Build();
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  EXPECT_EQ(wg.neighbors(0).size(), 1u);
}

TEST(WGraph, CutWeightCountsCrossingEdges) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(2, 3);
  builder.AddEdge(1, 2);
  Graph g = builder.Build();
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  std::vector<uint8_t> side{0, 0, 1, 1};
  EXPECT_EQ(wg.CutWeight(side), 1u);  // only edge 1-2 crosses
}

TEST(Coarsen, PreservesTotalNodeWeight) {
  Graph g = RandomDigraph(300, 4.0, 5);
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  Rng rng(1);
  CoarsenResult step = CoarsenHeavyEdge(wg, rng);
  EXPECT_LT(step.coarse.num_nodes(), wg.num_nodes());
  EXPECT_EQ(step.coarse.total_node_weight(), wg.total_node_weight());
  for (NodeId u = 0; u < wg.num_nodes(); ++u) {
    ASSERT_LT(step.fine_to_coarse[u], step.coarse.num_nodes());
  }
}

TEST(Coarsen, CutIsPreservedUnderProjection) {
  // Any coarse bisection projected to the fine graph has the same cut.
  Graph g = RandomDigraph(200, 3.0, 9);
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  Rng rng(2);
  CoarsenResult step = CoarsenHeavyEdge(wg, rng);
  std::vector<uint8_t> coarse_side(step.coarse.num_nodes());
  Rng side_rng(3);
  for (auto& s : coarse_side) s = static_cast<uint8_t>(side_rng.Uniform(2));
  std::vector<uint8_t> fine_side(wg.num_nodes());
  for (NodeId u = 0; u < wg.num_nodes(); ++u) {
    fine_side[u] = coarse_side[step.fine_to_coarse[u]];
  }
  EXPECT_EQ(step.coarse.CutWeight(coarse_side), wg.CutWeight(fine_side));
}

TEST(Bisect, ProducesBalancedSides) {
  Graph g = RandomDigraph(1000, 4.0, 17);
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  BisectOptions options;
  options.seed = 4;
  std::vector<uint8_t> side = MultilevelBisect(wg, options);
  size_t zero = 0;
  for (uint8_t s : side) zero += (s == 0);
  double fraction = static_cast<double>(zero) / static_cast<double>(side.size());
  EXPECT_GT(fraction, 0.35);
  EXPECT_LT(fraction, 0.65);
}

TEST(Bisect, CutBeatsRandomSplit) {
  Graph g = CommunityDigraph(1500, 6, 4.0, 0.95, 21);
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  BisectOptions options;
  options.seed = 5;
  std::vector<uint8_t> side = MultilevelBisect(wg, options);
  uint64_t cut = wg.CutWeight(side);

  Rng rng(6);
  std::vector<uint8_t> random_side(wg.num_nodes());
  for (auto& s : random_side) s = static_cast<uint8_t>(rng.Uniform(2));
  uint64_t random_cut = wg.CutWeight(random_side);
  EXPECT_LT(cut, random_cut / 3) << "multilevel should crush random splits";
}

TEST(Bisect, FindsThePlantedCutOnTwoCliques) {
  // Two 20-cliques joined by one edge: optimal cut weight is 1.
  GraphBuilder builder(40);
  for (NodeId u = 0; u < 20; ++u) {
    for (NodeId v = 0; v < 20; ++v) {
      if (u != v) {
        builder.AddEdge(u, v);
        builder.AddEdge(u + 20, v + 20);
      }
    }
  }
  builder.AddEdge(0, 20);
  Graph g = builder.Build();
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  BisectOptions options;
  options.seed = 11;
  std::vector<uint8_t> side = MultilevelBisect(wg, options);
  EXPECT_EQ(wg.CutWeight(side), 1u);
}

TEST(Kway, CoversAllParts) {
  Graph g = RandomDigraph(600, 4.0, 23);
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  BisectOptions options;
  options.seed = 7;
  for (uint32_t k : {2u, 3u, 4u, 8u}) {
    std::vector<uint32_t> part = RecursiveKway(wg, k, options);
    std::vector<size_t> sizes(k, 0);
    for (uint32_t p : part) {
      ASSERT_LT(p, k);
      ++sizes[p];
    }
    for (uint32_t p = 0; p < k; ++p) {
      EXPECT_GT(sizes[p], 0u) << "empty part " << p << " of " << k;
      EXPECT_LT(sizes[p], 2 * wg.num_nodes() / k) << "part " << p << " of " << k;
    }
  }
}

TEST(PartitionLocalGraph, AllMethodsProduceValidAssignments) {
  Graph g = RandomDigraph(400, 3.0, 31);
  LocalGraph lg = LocalGraph::Whole(g);
  for (PartitionMethod method : {PartitionMethod::kMultilevel,
                                 PartitionMethod::kBfs, PartitionMethod::kRandom}) {
    PartitionOptions options;
    options.method = method;
    std::vector<uint32_t> part = PartitionLocalGraph(lg, 4, options);
    PartitionQuality quality = EvaluatePartition(lg, part, 4);
    EXPECT_GT(quality.smallest_part, 0u);
    EXPECT_LT(quality.balance, 2.0);
  }
}

TEST(PartitionLocalGraph, MultilevelHasSmallestCut) {
  Graph g = CommunityDigraph(1200, 8, 4.0, 0.92, 3);
  LocalGraph lg = LocalGraph::Whole(g);
  auto cut_for = [&](PartitionMethod method) {
    PartitionOptions options;
    options.method = method;
    return EvaluatePartition(lg, PartitionLocalGraph(lg, 4, options), 4).cut_edges;
  };
  uint64_t multilevel = cut_for(PartitionMethod::kMultilevel);
  uint64_t random = cut_for(PartitionMethod::kRandom);
  EXPECT_LT(multilevel, random);
}

TEST(PartitionLocalGraph, SinglePartIsTrivial) {
  Graph g = RandomDigraph(50, 2.0, 1);
  LocalGraph lg = LocalGraph::Whole(g);
  std::vector<uint32_t> part = PartitionLocalGraph(lg, 1);
  for (uint32_t p : part) EXPECT_EQ(p, 0u);
}

// The FM refinement before incremental gain updates: after each move it
// recomputes every unlocked neighbor's gain over that neighbor's whole
// adjacency. Kept here as the oracle for FmRefine, which must make the same
// moves and rollbacks and so return the identical bisection.
struct ReferenceBalance {
  uint64_t total;
  uint64_t target0;
  uint64_t max0;
  uint64_t max1;

  ReferenceBalance(const WGraph& g, const BisectOptions& options) {
    total = g.total_node_weight();
    target0 = static_cast<uint64_t>(
        std::llround(options.target_fraction * static_cast<double>(total)));
    auto cap = [&](uint64_t target) {
      return std::min<uint64_t>(
          total, static_cast<uint64_t>(std::ceil(options.imbalance *
                                                 static_cast<double>(target))));
    };
    max0 = cap(target0);
    max1 = cap(total - target0);
  }

  bool Feasible(uint64_t w0) const { return w0 <= max0 && (total - w0) <= max1; }

  uint64_t Distance(uint64_t w0) const {
    uint64_t over0 = w0 > max0 ? w0 - max0 : 0;
    uint64_t over1 = (total - w0) > max1 ? (total - w0) - max1 : 0;
    return over0 + over1;
  }

  bool Better(uint64_t cut_a, uint64_t w_a, uint64_t cut_b, uint64_t w_b) const {
    if (Distance(w_a) != Distance(w_b)) return Distance(w_a) < Distance(w_b);
    return cut_a < cut_b;
  }
};

int64_t ReferenceMoveGain(const WGraph& g, const std::vector<uint8_t>& side,
                          NodeId u) {
  int64_t gain = 0;
  for (const auto& nbr : g.neighbors(u)) {
    gain += (side[nbr.to] != side[u]) ? nbr.weight
                                      : -static_cast<int64_t>(nbr.weight);
  }
  return gain;
}

uint64_t Weight0(const WGraph& g, const std::vector<uint8_t>& side) {
  uint64_t weight0 = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (side[u] == 0) weight0 += g.node_weight(u);
  }
  return weight0;
}

uint64_t ReferenceFmRefine(const WGraph& g, std::vector<uint8_t>& side,
                           const BisectOptions& options) {
  const size_t n = g.num_nodes();
  const ReferenceBalance balance(g, options);
  uint64_t weight0 = Weight0(g, side);
  uint64_t cut = g.CutWeight(side);
  std::vector<int64_t> gain(n, 0);
  std::vector<uint64_t> stamp(n, 0);
  std::vector<uint8_t> locked(n, 0);

  for (int pass = 0; pass < options.refine_passes; ++pass) {
    std::fill(locked.begin(), locked.end(), 0);
    using Entry = std::tuple<int64_t, uint64_t, NodeId>;
    std::priority_queue<Entry> pq;
    const bool start_feasible = balance.Feasible(weight0);
    for (NodeId u = 0; u < n; ++u) {
      gain[u] = ReferenceMoveGain(g, side, u);
      ++stamp[u];
      bool boundary = false;
      for (const auto& nbr : g.neighbors(u)) {
        if (side[nbr.to] != side[u]) boundary = true;
      }
      if (boundary || !start_feasible) pq.push({gain[u], stamp[u], u});
    }

    std::vector<NodeId> moves;
    uint64_t best_cut = cut;
    uint64_t best_weight0 = weight0;
    size_t best_prefix = 0;
    uint64_t current_cut = cut;
    uint64_t current_weight0 = weight0;
    while (!pq.empty()) {
      auto [gu, su, u] = pq.top();
      pq.pop();
      if (locked[u] || su != stamp[u]) continue;
      uint64_t next_weight0 = side[u] == 0 ? current_weight0 - g.node_weight(u)
                                           : current_weight0 + g.node_weight(u);
      if (balance.Distance(next_weight0) > balance.Distance(current_weight0)) {
        continue;
      }
      locked[u] = 1;
      side[u] ^= 1;
      current_weight0 = next_weight0;
      current_cut = static_cast<uint64_t>(static_cast<int64_t>(current_cut) - gu);
      moves.push_back(u);
      for (const auto& nbr : g.neighbors(u)) {
        if (locked[nbr.to]) continue;
        gain[nbr.to] = ReferenceMoveGain(g, side, nbr.to);
        ++stamp[nbr.to];
        pq.push({gain[nbr.to], stamp[nbr.to], nbr.to});
      }
      if (balance.Better(current_cut, current_weight0, best_cut, best_weight0)) {
        best_cut = current_cut;
        best_weight0 = current_weight0;
        best_prefix = moves.size();
      }
      if (moves.size() > n) break;
    }
    for (size_t i = moves.size(); i > best_prefix; --i) side[moves[i - 1]] ^= 1;
    const bool improved = balance.Better(best_cut, best_weight0, cut, weight0);
    cut = best_cut;
    weight0 = best_weight0;
    if (!improved || best_prefix == 0) break;
  }
  return cut;
}

enum class Shape { kRandom, kStar, kHubHeavy };

// Seeded weighted graph: sparse random edges, plus one center adjacent to
// every node (kStar) or a few hubs of degree >= 200 (kHubHeavy).
WGraph WeightedShape(Shape shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  WGraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    g.set_node_weight(u, 1 + static_cast<uint32_t>(rng.Uniform(3)));
  }
  auto edge = [&](NodeId u, NodeId v) {
    if (u != v) g.AddEdgeWeight(u, v, 1 + static_cast<uint32_t>(rng.Uniform(5)));
  };
  for (size_t e = 0; e < 2 * n; ++e) {
    edge(static_cast<NodeId>(rng.Uniform(n)), static_cast<NodeId>(rng.Uniform(n)));
  }
  if (shape == Shape::kStar) {
    for (NodeId v = 1; v < n; ++v) edge(0, v);
  } else if (shape == Shape::kHubHeavy) {
    for (NodeId hub = 0; hub < 4; ++hub) {
      for (size_t k = 0; k < 300; ++k) edge(hub, static_cast<NodeId>(rng.Uniform(n)));
    }
  }
  return g;
}

size_t MaxDegree(const WGraph& g) {
  size_t max = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    max = std::max(max, g.neighbors(u).size());
  }
  return max;
}

TEST(FmRefine, IncrementalGainsMatchFullRecomputeReference) {
  size_t feasible_starts = 0;
  size_t infeasible_starts = 0;
  for (Shape shape : {Shape::kRandom, Shape::kStar, Shape::kHubHeavy}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const WGraph g = WeightedShape(shape, 400 + 50 * seed, seed);
      if (shape != Shape::kRandom) ASSERT_GE(MaxDegree(g), 200u);
      for (double fraction : {0.5, 0.3}) {
        // A random split, and two starts far outside the balance band.
        Rng rng(seed * 31 + 7);
        std::vector<uint8_t> random_split(g.num_nodes());
        for (auto& s : random_split) s = static_cast<uint8_t>(rng.Uniform(2));
        std::vector<uint8_t> mostly_zero(g.num_nodes(), 0);
        for (NodeId u = 0; u < g.num_nodes(); u += 10) mostly_zero[u] = 1;
        const std::vector<uint8_t> all_one(g.num_nodes(), 1);

        for (const auto& start : {random_split, mostly_zero, all_one}) {
          for (int passes = 1; passes <= 4; ++passes) {
            BisectOptions options;
            options.target_fraction = fraction;
            options.refine_passes = passes;
            const ReferenceBalance balance(g, options);
            if (balance.Feasible(Weight0(g, start))) {
              ++feasible_starts;
            } else {
              ++infeasible_starts;
            }
            std::vector<uint8_t> want = start;
            std::vector<uint8_t> got = start;
            const uint64_t want_cut = ReferenceFmRefine(g, want, options);
            const uint64_t got_cut = FmRefine(g, got, options);
            ASSERT_EQ(got, want) << "shape " << static_cast<int>(shape)
                                 << " seed " << seed << " fraction " << fraction
                                 << " passes " << passes;
            ASSERT_EQ(got_cut, want_cut);
            ASSERT_EQ(got_cut, g.CutWeight(got));
          }
        }
      }
    }
  }
  EXPECT_GT(feasible_starts, 0u);
  EXPECT_GT(infeasible_starts, 0u);
}

class BisectSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BisectSeedTest, BalanceHoldsAcrossSeedsAndShapes) {
  uint64_t seed = GetParam();
  Graph g = RandomDigraph(300 + 40 * (seed % 5), 2.0 + (seed % 4), seed);
  WGraph wg = WGraph::FromLocalGraph(LocalGraph::Whole(g));
  BisectOptions options;
  options.seed = seed;
  std::vector<uint8_t> side = MultilevelBisect(wg, options);
  uint64_t weight0 = 0;
  for (NodeId u = 0; u < wg.num_nodes(); ++u) {
    if (side[u] == 0) weight0 += wg.node_weight(u);
  }
  double fraction =
      static_cast<double>(weight0) / static_cast<double>(wg.total_node_weight());
  EXPECT_GT(fraction, 0.30) << "seed=" << seed;
  EXPECT_LT(fraction, 0.70) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BisectSeedTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dppr
