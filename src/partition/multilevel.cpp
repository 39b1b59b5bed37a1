#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "partition/internal.hpp"
#include "partition/partitioner.hpp"

namespace cloudqc {
namespace internal {

/// One coarse level: CSR rows in the order Graph::add_edge would have
/// built them, node weights, and the map from the next finer level's nodes
/// onto this level's.
struct CoarseLevel {
  std::vector<std::size_t> offset;
  std::vector<NodeId> to;
  std::vector<double> weight;
  std::vector<double> node_weight;
  std::vector<NodeId> fine_to_coarse;

  LevelView view() const {
    LevelView v;
    v.num_nodes = static_cast<NodeId>(node_weight.size());
    v.offset = offset.data();
    v.to = to.data();
    v.weight = weight.data();
    v.node_weight = node_weight.data();
    return v;
  }
};

/// A level's rows re-sorted for region growing. Row u's entries that can
/// win an expansion — weight > -1, the grower's starting best, and not a
/// self-loop — come first, in [offset[u], pickable_end[u]), ordered by
/// weight descending and then row position; the rest follow in row order
/// up to offset[u + 1]. The first still-unassigned entry of the sorted part
/// is then the row's heaviest open edge, the first such in row order.
struct GrowRows {
  std::vector<NodeId> to;
  std::vector<double> weight;
  std::vector<std::size_t> pickable_end;

  void build(const LevelView& level, std::vector<std::size_t>& positions) {
    const auto n = static_cast<std::size_t>(level.num_nodes);
    to.resize(level.offset[n]);
    weight.resize(level.offset[n]);
    pickable_end.resize(n);
    for (NodeId u = 0; u < level.num_nodes; ++u) {
      const auto pickable_at = [&](std::size_t i) {
        return level.to[i] != u && level.weight[i] > -1.0;
      };
      positions.clear();
      for (std::size_t i = level.offset[u]; i < level.offset[u + 1]; ++i) {
        if (pickable_at(i)) positions.push_back(i);
      }
      std::sort(positions.begin(), positions.end(),
                [&](std::size_t a, std::size_t b) {
                  return level.weight[a] > level.weight[b] ||
                         (level.weight[a] == level.weight[b] && a < b);
                });
      const std::size_t pickable = positions.size();
      for (std::size_t i = level.offset[u]; i < level.offset[u + 1]; ++i) {
        if (!pickable_at(i)) positions.push_back(i);
      }
      std::size_t at = level.offset[u];
      for (const std::size_t i : positions) {
        to[at] = level.to[i];
        weight[at] = level.weight[i];
        ++at;
      }
      pickable_end[static_cast<std::size_t>(u)] = level.offset[u] + pickable;
    }
  }
};

/// Everything partition() writes, kept from call to call so a sweep over
/// many (imbalance, k) points allocates only its results.
struct PartitionScratch {
  PartitionScratch(const Graph& g, const CsrAdjacency* given)
      : graph(&g), csr(given) {
    if (csr == nullptr) csr = &own_csr.emplace(g);
    CLOUDQC_CHECK(csr->num_nodes() == g.num_nodes());
    node_weight.reserve(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      node_weight.push_back(g.node_weight(u));
    }
    level0 = LevelView::of(*csr, node_weight);
    level0_rows.build(level0, positions);
  }

  const Graph* graph;
  std::optional<CsrAdjacency> own_csr;
  const CsrAdjacency* csr;
  std::vector<double> node_weight;
  LevelView level0;
  std::vector<std::size_t> positions;  // GrowRows::build's row buffer
  GrowRows level0_rows;
  GrowRows coarsest_rows;           // when the coarsest level is not level 0
  std::vector<CoarseLevel> coarse;  // the first `levels` are in use
  PartitionConnectivity model;

  std::vector<NodeId> order;  // matching and growing visit order
  std::vector<NodeId> match;
  // Contraction: per coarse node, the (other end, weight) of every fine
  // edge landing on it, and a neighbour's position in the row being built.
  std::vector<std::size_t> incident_at;
  std::vector<std::size_t> incident_cursor;
  std::vector<NodeId> incident_to;
  std::vector<double> incident_weight;
  std::vector<std::size_t> slot;
  // Growing: region r's frontier is frontier[r * n, ...); every node's
  // cursor into its GrowRows row.
  std::vector<NodeId> frontier;
  std::vector<std::size_t> frontier_size;
  std::vector<std::size_t> cursor_of;
  std::vector<double> region_weight;
  std::vector<double> ratio;
  std::vector<int> heap;
  std::vector<int> part;
  std::vector<int> cand;
};

}  // namespace internal

namespace {

using internal::CoarseLevel;
using internal::LevelView;
using internal::PartitionScratch;

/// Heavy-edge matching: visit nodes in random order; match each unmatched
/// node with its unmatched neighbor of maximum edge weight. Writes the
/// fine->coarse map and returns the number of coarse nodes.
NodeId heavy_edge_matching(const LevelView& g, Rng& rng, PartitionScratch& s,
                           std::vector<NodeId>& to_coarse) {
  const auto n = static_cast<std::size_t>(g.num_nodes);
  std::vector<NodeId>& match = s.match;
  match.assign(n, kInvalidNode);
  s.order.resize(n);
  std::iota(s.order.begin(), s.order.end(), 0);
  rng.shuffle(s.order);

  for (const NodeId u : s.order) {
    if (match[static_cast<std::size_t>(u)] != kInvalidNode) continue;
    NodeId best = kInvalidNode;
    double best_w = -1.0;
    for (std::size_t i = g.offset[u]; i < g.offset[u + 1]; ++i) {
      const NodeId v = g.to[i];
      if (v == u) continue;
      if (match[static_cast<std::size_t>(v)] != kInvalidNode) continue;
      if (g.weight[i] > best_w) {
        best_w = g.weight[i];
        best = v;
      }
    }
    if (best == kInvalidNode) {
      match[static_cast<std::size_t>(u)] = u;  // stays alone
    } else {
      match[static_cast<std::size_t>(u)] = best;
      match[static_cast<std::size_t>(best)] = u;
    }
  }

  to_coarse.assign(n, kInvalidNode);
  NodeId next = 0;
  for (NodeId u = 0; u < g.num_nodes; ++u) {
    if (to_coarse[static_cast<std::size_t>(u)] != kInvalidNode) continue;
    const NodeId m = match[static_cast<std::size_t>(u)];
    to_coarse[static_cast<std::size_t>(u)] = next;
    if (m != u) to_coarse[static_cast<std::size_t>(m)] = next;
    ++next;
  }
  return next;
}

/// Contract `fine` along c.fine_to_coarse into c, exactly as streaming the
/// fine edges (in for_each_edge order) through Graph::add_edge on a fresh
/// Graph(coarse_n) would: a coarse row lists its neighbours in the order
/// their pair first appears, and each pair's weight is summed in stream
/// order. Every fine edge is first filed under both coarse endpoints in
/// stream order; each row then merges repeats with a position marker, so
/// no row is searched.
void contract(const LevelView& fine, NodeId coarse_n, PartitionScratch& s,
              CoarseLevel& c) {
  const auto cn = static_cast<std::size_t>(coarse_n);
  const std::vector<NodeId>& map = c.fine_to_coarse;
  // A Graph starts every node at weight 1; the fine weights are added to
  // that and the 1 taken off again, which rounds differently from a plain
  // sum for non-integer weights, so do the same.
  const auto coarse_of = [&](NodeId u) {
    return static_cast<std::size_t>(map[static_cast<std::size_t>(u)]);
  };
  c.node_weight.assign(cn, 1.0);
  for (NodeId u = 0; u < fine.num_nodes; ++u) {
    c.node_weight[coarse_of(u)] += fine.node_weight[u];
  }
  for (double& w : c.node_weight) w -= 1.0;

  s.incident_at.assign(cn + 1, 0);
  fine.for_each_edge([&](NodeId u, NodeId v, double) {
    const std::size_t cu = coarse_of(u);
    const std::size_t cv = coarse_of(v);
    if (cu == cv) return;
    ++s.incident_at[cu + 1];
    ++s.incident_at[cv + 1];
  });
  for (std::size_t cu = 0; cu < cn; ++cu) {
    s.incident_at[cu + 1] += s.incident_at[cu];
  }
  s.incident_to.resize(s.incident_at[cn]);
  s.incident_weight.resize(s.incident_at[cn]);
  s.incident_cursor.assign(s.incident_at.begin(), s.incident_at.end() - 1);
  fine.for_each_edge([&](NodeId u, NodeId v, double w) {
    const std::size_t cu = coarse_of(u);
    const std::size_t cv = coarse_of(v);
    if (cu == cv) return;
    const std::size_t at_u = s.incident_cursor[cu]++;
    s.incident_to[at_u] = static_cast<NodeId>(cv);
    s.incident_weight[at_u] = w;
    const std::size_t at_v = s.incident_cursor[cv]++;
    s.incident_to[at_v] = static_cast<NodeId>(cu);
    s.incident_weight[at_v] = w;
  });

  constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();
  s.slot.assign(cn, kAbsent);
  c.offset.resize(cn + 1);
  c.to.clear();
  c.weight.clear();
  for (std::size_t cu = 0; cu < cn; ++cu) {
    c.offset[cu] = c.to.size();
    for (std::size_t i = s.incident_at[cu]; i < s.incident_at[cu + 1]; ++i) {
      const auto cv = static_cast<std::size_t>(s.incident_to[i]);
      std::size_t& at = s.slot[cv];
      if (at == kAbsent) {
        at = c.to.size();
        c.to.push_back(static_cast<NodeId>(cv));
        c.weight.push_back(s.incident_weight[i]);
      } else {
        c.weight[at] += s.incident_weight[i];
      }
    }
    for (std::size_t j = c.offset[cu]; j < c.to.size(); ++j) {
      s.slot[static_cast<std::size_t>(c.to[j])] = kAbsent;
    }
  }
  c.offset[cn] = c.to.size();
}

/// Greedy region growing: grow k regions from random seeds, always expanding
/// the lightest region (lowest weight / target, ties to the lowest index)
/// across its heaviest frontier edge. Unreached nodes (disconnected graphs)
/// are swept into the lightest parts at the end.
void grow_initial_partition(const LevelView& g, const internal::GrowRows& rows,
                            int k, Rng& rng, double target,
                            PartitionScratch& s, std::vector<int>& part) {
  const auto n = static_cast<std::size_t>(g.num_nodes);
  const auto ku = static_cast<std::size_t>(k);
  part.assign(n, -1);
  std::vector<double>& weight = s.region_weight;
  weight.assign(ku, 0.0);

  std::vector<NodeId>& order = s.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Seeds: first k nodes of the shuffled order. Region r's frontier is
  // frontier[r * n, r * n + frontier_size[r]).
  s.frontier.resize(ku * n);
  s.frontier_size.assign(ku, 0);
  s.cursor_of.assign(g.offset, g.offset + n);
  int seeded = 0;
  for (const NodeId u : order) {
    if (seeded == k) break;
    part[static_cast<std::size_t>(u)] = seeded;
    weight[static_cast<std::size_t>(seeded)] += g.node_weight[u];
    s.frontier[static_cast<std::size_t>(seeded) * n] = u;
    s.frontier_size[static_cast<std::size_t>(seeded)] = 1;
    ++seeded;
  }

  // The regions that can still expand, as a binary min-heap on
  // (ratio, index) with ratio = weight / target: the top is the region a
  // scan for the strictly lowest ratio picks. A region whose ratio is NaN
  // or +inf never passes such a scan's `< best` test (the best starts at
  // +inf), so it never enters the heap.
  std::vector<double>& ratio = s.ratio;
  ratio.resize(ku);
  for (std::size_t r = 0; r < ku; ++r) ratio[r] = weight[r] / target;
  const auto pickable = [&](int r) {
    return ratio[static_cast<std::size_t>(r)] <
           std::numeric_limits<double>::infinity();
  };
  const auto before = [&](int a, int b) {
    const double ra = ratio[static_cast<std::size_t>(a)];
    const double rb = ratio[static_cast<std::size_t>(b)];
    return ra < rb || (ra == rb && a < b);
  };
  std::vector<int>& heap = s.heap;
  heap.clear();
  for (int r = 0; r < seeded; ++r) {
    if (pickable(r)) heap.push_back(r);
  }
  const auto sift_down = [&](std::size_t i) {
    const int moving = heap[i];
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= heap.size()) break;
      if (child + 1 < heap.size() && before(heap[child + 1], heap[child])) {
        ++child;
      }
      if (!before(heap[child], moving)) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = moving;
  };
  const auto pop_top = [&] {
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty()) sift_down(0);
  };
  for (std::size_t i = heap.size() / 2; i-- > 0;) sift_down(i);

  while (!heap.empty()) {
    const int r = heap.front();
    NodeId* fr = s.frontier.data() + static_cast<std::size_t>(r) * n;
    std::size_t& fr_size = s.frontier_size[static_cast<std::size_t>(r)];
    // Expand across the heaviest edge out of this region's frontier (the
    // first such edge in frontier and row order), dropping frontier nodes
    // with no unassigned neighbour left. A node's cursor into its sorted
    // row only moves forward: assigned nodes stay assigned.
    NodeId pick = kInvalidNode;
    double pick_w = -1.0;
    for (std::size_t i = 0; i < fr_size; ++i) {
      const NodeId f = fr[i];
      const auto fu = static_cast<std::size_t>(f);
      std::size_t c = s.cursor_of[fu];
      const std::size_t end = rows.pickable_end[fu];
      while (c < end && part[static_cast<std::size_t>(rows.to[c])] != -1) ++c;
      s.cursor_of[fu] = c;
      bool live = c < end;
      if (live) {
        const bool take = rows.weight[c] > pick_w;
        pick = take ? rows.to[c] : pick;
        pick_w = take ? rows.weight[c] : pick_w;
      } else {
        // Open neighbours that can never win still keep f on the frontier.
        for (std::size_t e = end; e < g.offset[f + 1] && !live; ++e) {
          live = part[static_cast<std::size_t>(rows.to[e])] == -1;
        }
      }
      if (!live) {
        std::swap(fr[i], fr[fr_size - 1]);
        --fr_size;
        --i;
      }
    }
    if (pick == kInvalidNode) {
      fr_size = 0;
      pop_top();  // other regions may still expand
      continue;
    }
    part[static_cast<std::size_t>(pick)] = r;
    weight[static_cast<std::size_t>(r)] += g.node_weight[pick];
    ratio[static_cast<std::size_t>(r)] =
        weight[static_cast<std::size_t>(r)] / target;
    fr[fr_size++] = pick;
    if (pickable(r)) {
      sift_down(0);
    } else {
      pop_top();
    }
  }

  // Disconnected leftovers: assign to the lightest part.
  for (const NodeId u : order) {
    if (part[static_cast<std::size_t>(u)] != -1) continue;
    const int r = static_cast<int>(
        std::min_element(weight.begin(), weight.end()) - weight.begin());
    part[static_cast<std::size_t>(u)] = r;
    weight[static_cast<std::size_t>(r)] += g.node_weight[u];
  }
}

}  // namespace

double edge_cut(const Graph& g, const std::vector<int>& part) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(g.num_nodes()));
  double cut = 0.0;
  g.for_each_edge([&](NodeId u, NodeId v, double w) {
    if (part[static_cast<std::size_t>(u)] !=
        part[static_cast<std::size_t>(v)]) {
      cut += w;
    }
  });
  return cut;
}

std::vector<double> part_weights(const Graph& g, const std::vector<int>& part,
                                 int min_parts) {
  int k = min_parts;
  for (int p : part) k = std::max(k, p + 1);
  std::vector<double> w(static_cast<std::size_t>(k), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    w[static_cast<std::size_t>(part[static_cast<std::size_t>(u)])] +=
        g.node_weight(u);
  }
  return w;
}

PartitionWorkspace::PartitionWorkspace(const Graph& g)
    : scratch_(std::make_unique<internal::PartitionScratch>(g, nullptr)) {}

PartitionWorkspace::PartitionWorkspace(const Graph& g, const CsrAdjacency& csr)
    : scratch_(std::make_unique<internal::PartitionScratch>(g, &csr)) {}

PartitionWorkspace::~PartitionWorkspace() = default;

PartitionResult partition_graph(const Graph& g, const PartitionOptions& opt) {
  PartitionWorkspace workspace(g);
  return workspace.partition(opt);
}

PartitionResult PartitionWorkspace::partition(const PartitionOptions& opt) {
  CLOUDQC_CHECK(opt.num_parts >= 1);
  CLOUDQC_CHECK(opt.imbalance >= 0.0);
  PartitionScratch& s = *scratch_;
  const Graph& g = *s.graph;
  const int k = opt.num_parts;
  Rng rng(opt.seed);

  PartitionResult out;
  out.num_parts = k;
  if (g.num_nodes() == 0) {
    out.part_weights.assign(static_cast<std::size_t>(k), 0.0);
    return out;
  }
  if (k == 1) {
    out.part.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    out.edge_cut = 0.0;
    out.part_weights = part_weights(g, out.part, k);
    return out;
  }

  const double total = g.total_node_weight();
  const double target = total / k;
  // Balance ceiling per level: the ε bound, but never tighter than what a
  // single node of that level's granularity makes achievable (METIS-style
  // adaptive bound — coarse nodes are heavy, so the ceiling loosens there
  // and tightens as we uncoarsen).
  auto ceiling_for = [&](const LevelView& lg) {
    double max_node = 0.0;
    for (NodeId u = 0; u < lg.num_nodes; ++u) {
      max_node = std::max(max_node, lg.node_weight[u]);
    }
    return std::max((1.0 + opt.imbalance) * total / k, total / k + max_node);
  };

  // --- 1. Coarsening ---------------------------------------------------
  // Level 0 is `g` itself; s.coarse[i] is level i + 1, and its
  // fine_to_coarse maps level i's nodes onto it.
  std::size_t levels = 0;
  auto level = [&](std::size_t lvl) {
    return lvl == 0 ? s.level0 : s.coarse[lvl - 1].view();
  };
  const NodeId coarse_goal =
      std::max<NodeId>(static_cast<NodeId>(4 * k), 24);
  while (level(levels).num_nodes > coarse_goal) {
    if (s.coarse.size() == levels) s.coarse.emplace_back();
    CoarseLevel& c = s.coarse[levels];
    const LevelView fine = level(levels);
    const NodeId cn = heavy_edge_matching(fine, rng, s, c.fine_to_coarse);
    // Matching stagnated (e.g. graph with no edges): stop coarsening.
    if (cn >= fine.num_nodes) break;
    contract(fine, cn, s, c);
    ++levels;
  }

  // --- 2. Initial partition at the coarsest level ----------------------
  // One connectivity model and one balance ceiling per level, shared by
  // every refinement run on it.
  const LevelView coarsest = level(levels);
  s.model.bind(coarsest, k);
  const double coarsest_ceiling = ceiling_for(coarsest);
  double best_cut = std::numeric_limits<double>::infinity();
  // A few random restarts; keep the best refined result.
  constexpr int kRestarts = 4;
  if (levels > 0) s.coarsest_rows.build(coarsest, s.positions);
  const internal::GrowRows& rows =
      levels > 0 ? s.coarsest_rows : s.level0_rows;
  for (int t = 0; t < kRestarts; ++t) {
    grow_initial_partition(coarsest, rows, k, rng, target, s, s.cand);
    internal::refine_partition(s.model, s.cand, coarsest_ceiling,
                               opt.refine_passes, rng);
    internal::repair_empty_parts(coarsest, s.cand, k);
    const double cut = internal::level_cut(coarsest, s.cand);
    if (cut < best_cut) {
      best_cut = cut;
      std::swap(s.part, s.cand);
    }
  }

  // --- 3. Uncoarsen + refine -------------------------------------------
  for (std::size_t lvl = levels; lvl-- > 0;) {
    const LevelView fine = level(lvl);
    const std::vector<NodeId>& to_coarse = s.coarse[lvl].fine_to_coarse;
    s.cand.resize(to_coarse.size());
    for (std::size_t u = 0; u < to_coarse.size(); ++u) {
      s.cand[u] = s.part[static_cast<std::size_t>(to_coarse[u])];
    }
    std::swap(s.part, s.cand);
    s.model.bind(fine, k);
    internal::refine_partition(s.model, s.part, ceiling_for(fine),
                               opt.refine_passes, rng);
    internal::repair_empty_parts(fine, s.part, k);
  }

  out.part = s.part;
  // Without coarsening the winning restart's cut is already the cut of
  // `g` (level 0 is g's CSR, summed in the same order).
  out.edge_cut =
      levels == 0 ? best_cut : internal::level_cut(s.level0, out.part);
  out.part_weights = part_weights(g, out.part, k);
  return out;
}

}  // namespace cloudqc
