#include "dppr/partition/bisect.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>

#include "dppr/common/macros.h"
#include "dppr/common/rng.h"
#include "dppr/partition/coarsen.h"

namespace dppr {
namespace {

struct Balance {
  uint64_t total;
  uint64_t target0;
  uint64_t max0;
  uint64_t max1;

  static Balance From(const WGraph& g, const BisectOptions& options) {
    Balance b;
    b.total = g.total_node_weight();
    b.target0 = static_cast<uint64_t>(
        std::llround(options.target_fraction * static_cast<double>(b.total)));
    auto cap = [&](uint64_t target) {
      return std::min<uint64_t>(
          b.total, static_cast<uint64_t>(std::ceil(options.imbalance *
                                                   static_cast<double>(target))));
    };
    b.max0 = cap(b.target0);
    b.max1 = cap(b.total - b.target0);
    return b;
  }

  bool Feasible(uint64_t w0) const { return w0 <= max0 && (total - w0) <= max1; }

  /// How far w0 is from the feasible band (0 when feasible).
  uint64_t InfeasibilityDistance(uint64_t w0) const {
    uint64_t over0 = w0 > max0 ? w0 - max0 : 0;
    uint64_t over1 = (total - w0) > max1 ? (total - w0) - max1 : 0;
    return over0 + over1;
  }

  /// Smallest feasible side-0 weight.
  uint64_t MinWeight0() const { return total > max1 ? total - max1 : 0; }
};

// Lexicographic quality: feasibility beats everything, then smaller
// infeasibility distance, then smaller cut.
bool BetterState(const Balance& balance, uint64_t cut_a, uint64_t w_a,
                 uint64_t cut_b, uint64_t w_b) {
  uint64_t dist_a = balance.InfeasibilityDistance(w_a);
  uint64_t dist_b = balance.InfeasibilityDistance(w_b);
  if (dist_a != dist_b) return dist_a < dist_b;
  return cut_a < cut_b;
}

// Gain of moving u to the other side: (cut edges removed) - (cut edges added).
int64_t MoveGain(const WGraph& g, const std::vector<uint8_t>& side, NodeId u) {
  int64_t gain = 0;
  for (const auto& nbr : g.neighbors(u)) {
    gain += (side[nbr.to] != side[u]) ? nbr.weight : -static_cast<int64_t>(nbr.weight);
  }
  return gain;
}

// Greedy graph growing: grow side 0 from a random seed, preferring frontier
// nodes with the strongest connection into the region, until the target
// weight is reached without overshooting the balance cap.
std::vector<uint8_t> GrowInitial(const WGraph& g, const Balance& balance, Rng& rng) {
  size_t n = g.num_nodes();
  std::vector<uint8_t> side(n, 1);
  if (n == 0 || balance.target0 == 0) return side;

  // preference[u] = weight of edges into the grown region.
  std::vector<int64_t> preference(n, 0);
  std::vector<uint8_t> in_region(n, 0);
  using Entry = std::tuple<int64_t, uint64_t, NodeId>;  // (pref, tiebreak, node)
  std::priority_queue<Entry> frontier;

  uint64_t weight0 = 0;
  size_t grown = 0;
  size_t skipped_in_a_row = 0;
  while (weight0 < balance.target0 && grown < n && skipped_in_a_row < 2 * n) {
    if (frontier.empty()) {
      // Seed (or re-seed for disconnected graphs) with a random outside node.
      NodeId seed = kInvalidNode;
      for (size_t tries = 0; tries < 2 * n && seed == kInvalidNode; ++tries) {
        NodeId candidate = static_cast<NodeId>(rng.Uniform(n));
        if (!in_region[candidate]) seed = candidate;
      }
      if (seed == kInvalidNode) {
        for (NodeId u = 0; u < n; ++u) {
          if (!in_region[u]) {
            seed = u;
            break;
          }
        }
      }
      if (seed == kInvalidNode) break;
      frontier.push({preference[seed], rng.Next(), seed});
    }
    auto [pref, tiebreak, u] = frontier.top();
    frontier.pop();
    if (in_region[u] || pref != preference[u]) continue;  // stale entry
    // Skip nodes that would push the region past the cap once the region is
    // already feasible (heavy coarse nodes would otherwise overshoot badly).
    if (weight0 + g.node_weight(u) > balance.max0 &&
        weight0 >= balance.MinWeight0()) {
      ++skipped_in_a_row;
      continue;
    }
    skipped_in_a_row = 0;
    in_region[u] = 1;
    side[u] = 0;
    weight0 += g.node_weight(u);
    ++grown;
    for (const auto& nbr : g.neighbors(u)) {
      if (in_region[nbr.to]) continue;
      preference[nbr.to] += nbr.weight;
      frontier.push({preference[nbr.to], rng.Next(), nbr.to});
    }
  }
  return side;
}

}  // namespace

uint64_t FmRefine(const WGraph& g, std::vector<uint8_t>& side,
                  const BisectOptions& options) {
  size_t n = g.num_nodes();
  DPPR_CHECK_EQ(side.size(), n);
  Balance balance = Balance::From(g, options);

  uint64_t weight0 = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (side[u] == 0) weight0 += g.node_weight(u);
  }
  uint64_t cut = g.CutWeight(side);

  std::vector<int64_t> gain(n, 0);
  std::vector<uint64_t> stamp(n, 0);
  std::vector<uint8_t> locked(n, 0);

  for (int pass = 0; pass < options.refine_passes; ++pass) {
    std::fill(locked.begin(), locked.end(), 0);
    using Entry = std::tuple<int64_t, uint64_t, NodeId>;  // (gain, stamp, node)
    std::priority_queue<Entry> pq;
    bool start_feasible = balance.Feasible(weight0);
    for (NodeId u = 0; u < n; ++u) {
      gain[u] = MoveGain(g, side, u);
      ++stamp[u];
      bool boundary = false;
      for (const auto& nbr : g.neighbors(u)) {
        if (side[nbr.to] != side[u]) {
          boundary = true;
          break;
        }
      }
      // From an infeasible start every node is a candidate — boundary-only
      // scanning could never empty an overweight side with no cut edges.
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
      // Never worsen the balance class: feasible states only move to
      // feasible states; infeasible states must not drift further out.
      if (balance.InfeasibilityDistance(next_weight0) >
          balance.InfeasibilityDistance(current_weight0)) {
        continue;
      }
      locked[u] = 1;
      side[u] ^= 1;
      current_weight0 = next_weight0;
      current_cut = static_cast<uint64_t>(static_cast<int64_t>(current_cut) - gu);
      moves.push_back(u);
      // Only u's term in each neighbor's gain changed, and it flipped sign:
      // an edge to u that now lies within one side lowers the neighbor's
      // gain by 2w, one that now crosses raises it by 2w. Integer gains keep
      // this exact, so every queue entry equals a full MoveGain recompute.
      for (const auto& nbr : g.neighbors(u)) {
        if (locked[nbr.to]) continue;
        const int64_t twice = 2 * static_cast<int64_t>(nbr.weight);
        gain[nbr.to] += side[nbr.to] == side[u] ? -twice : twice;
        ++stamp[nbr.to];
        pq.push({gain[nbr.to], stamp[nbr.to], nbr.to});
      }
      if (BetterState(balance, current_cut, current_weight0, best_cut,
                      best_weight0)) {
        best_cut = current_cut;
        best_weight0 = current_weight0;
        best_prefix = moves.size();
      }
      if (moves.size() > n) break;  // safety: every node moved at most once
    }

    // Roll back past the best prefix.
    for (size_t i = moves.size(); i > best_prefix; --i) {
      side[moves[i - 1]] ^= 1;
    }
    bool improved =
        BetterState(balance, best_cut, best_weight0, cut, weight0);
    cut = best_cut;
    weight0 = best_weight0;
    if (!improved || best_prefix == 0) break;
  }
  return cut;
}

std::vector<uint8_t> MultilevelBisect(const WGraph& graph,
                                      const BisectOptions& options) {
  Rng rng(options.seed);
  size_t n = graph.num_nodes();
  if (n == 0) return {};
  if (n == 1) return {0};

  // Coarsening phase. The per-node weight cap keeps coarse nodes small
  // enough that a balanced split of the coarsest graph exists.
  uint64_t weight_cap =
      std::max<uint64_t>(1, graph.total_node_weight() /
                                std::max<size_t>(16, options.coarsest_size / 2));
  std::vector<WGraph> levels;
  std::vector<std::vector<NodeId>> mappings;  // fine -> coarse per level
  levels.push_back(graph);
  while (levels.back().num_nodes() > options.coarsest_size) {
    CoarsenResult step = CoarsenHeavyEdge(levels.back(), rng, weight_cap);
    // Stop if matching degenerates (e.g. star graphs barely shrink).
    if (step.coarse.num_nodes() >
        static_cast<size_t>(0.95 * static_cast<double>(levels.back().num_nodes()))) {
      break;
    }
    mappings.push_back(std::move(step.fine_to_coarse));
    levels.push_back(std::move(step.coarse));
  }

  // Initial partition on the coarsest level: several tries, keep best state.
  const WGraph& coarsest = levels.back();
  Balance balance = Balance::From(coarsest, options);
  std::vector<uint8_t> best_side;
  uint64_t best_cut = 0;
  uint64_t best_weight0 = 0;
  for (int attempt = 0; attempt < options.num_initial_tries; ++attempt) {
    std::vector<uint8_t> side = GrowInitial(coarsest, balance, rng);
    uint64_t cut = FmRefine(coarsest, side, options);
    uint64_t weight0 = 0;
    for (NodeId u = 0; u < coarsest.num_nodes(); ++u) {
      if (side[u] == 0) weight0 += coarsest.node_weight(u);
    }
    if (best_side.empty() ||
        BetterState(balance, cut, weight0, best_cut, best_weight0)) {
      best_cut = cut;
      best_weight0 = weight0;
      best_side = std::move(side);
    }
  }

  // Uncoarsen with refinement at each finer level.
  std::vector<uint8_t> side = std::move(best_side);
  for (size_t level = levels.size() - 1; level > 0; --level) {
    const std::vector<NodeId>& map = mappings[level - 1];
    std::vector<uint8_t> fine_side(map.size());
    for (NodeId u = 0; u < map.size(); ++u) fine_side[u] = side[map[u]];
    side = std::move(fine_side);
    FmRefine(levels[level - 1], side, options);
  }
  return side;
}

}  // namespace dppr
