#include "comm/bcast.hpp"

#include <algorithm>
#include <map>

#include "support/error.hpp"

namespace bstc {
namespace {

/// Leader groups of a participant set: participants bucketed by node, in
/// ascending node order, each bucket ascending by rank (parts arrives
/// sorted). The leader of the root's bucket is the root itself; every
/// other bucket is led by its smallest rank.
struct LeaderGroups {
  std::vector<int> leaders;                // root's leader first, then asc
  std::map<int, std::vector<int>> by_node; // node -> participant ranks
  std::map<int, int> leader_of_node;       // node -> leader rank
};

LeaderGroups group_by_node(const std::vector<int>& parts, int root,
                           const std::vector<int>& node_of_rank) {
  LeaderGroups g;
  for (int r : parts) g.by_node[bcast_node_of(node_of_rank, r)].push_back(r);
  const int root_node = bcast_node_of(node_of_rank, root);
  for (const auto& [node, members] : g.by_node) {
    g.leader_of_node[node] = (node == root_node) ? root : members.front();
  }
  g.leaders.push_back(root);
  for (const auto& [node, leader] : g.leader_of_node) {
    if (node != root_node) g.leaders.push_back(leader);
  }
  return g;
}

/// Binomial-tree children of virtual rank `v` among `n` leaders (virtual
/// rank 0 is the root). MPICH shape: the subtree below v spans the bits
/// under v's lowest set bit; children are v + 2^j for descending j, so the
/// largest subtree is fed first.
void tree_children(int v, int n, std::vector<int>* out) {
  int mask = 1;
  while (mask < n && (v & mask) == 0) mask <<= 1;
  for (int m = mask >> 1; m >= 1; m >>= 1) {
    if (v + m < n) out->push_back(v + m);
  }
}

void validate_parts(const std::vector<int>& parts, int root, int self) {
  BSTC_REQUIRE(!parts.empty(), "broadcast needs at least one participant");
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    BSTC_REQUIRE(parts[i] < parts[i + 1],
                 "broadcast participants must be strictly ascending");
  }
  BSTC_REQUIRE(std::binary_search(parts.begin(), parts.end(), root),
               "broadcast root must be a participant");
  if (self >= 0) {
    BSTC_REQUIRE(std::binary_search(parts.begin(), parts.end(), self),
                 "broadcast fanout queried for a non-participant rank");
  }
}

}  // namespace

const char* bcast_algorithm_name(BcastAlgorithm algo) {
  switch (algo) {
    case BcastAlgorithm::kTree: return "tree";
    case BcastAlgorithm::kRing: return "ring";
  }
  return "?";
}

BcastAlgorithm resolve_bcast(std::size_t participants, std::size_t tile_bytes) {
  // With two participants both algorithms are the same single hop; call
  // it a tree. Past the ring threshold the chain's one-tile-per-rank
  // injection wins; below it the tree's log2 depth does.
  if (participants <= 2) return BcastAlgorithm::kTree;
  return tile_bytes >= kRingBcastMinBytes ? BcastAlgorithm::kRing
                                                : BcastAlgorithm::kTree;
}

int bcast_node_of(const std::vector<int>& node_of_rank, int rank) {
  if (node_of_rank.empty()) return rank;
  BSTC_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < node_of_rank.size(),
               "rank outside the node map");
  return node_of_rank[static_cast<std::size_t>(rank)];
}

std::vector<int> bcast_children(BcastAlgorithm algo,
                                const std::vector<int>& parts, int root,
                                int self,
                                const std::vector<int>& node_of_rank) {
  validate_parts(parts, root, self);
  std::vector<int> children;
  if (parts.size() == 1) return children;

  const LeaderGroups g = group_by_node(parts, root, node_of_rank);
  const auto it = std::find(g.leaders.begin(), g.leaders.end(), self);
  if (it == g.leaders.end()) return children;  // members are leaves

  const int v = static_cast<int>(it - g.leaders.begin());
  const int n = static_cast<int>(g.leaders.size());
  std::vector<int> child_leaders;
  if (algo == BcastAlgorithm::kTree) {
    tree_children(v, n, &child_leaders);
  } else {  // kRing: chain leader v -> leader v+1
    if (v + 1 < n) child_leaders.push_back(v + 1);
  }
  for (int cv : child_leaders) children.push_back(g.leaders[cv]);

  // Wire forwarding first (pipelines the next node), local fanout after.
  const int self_node = bcast_node_of(node_of_rank, self);
  for (int r : g.by_node.at(self_node)) {
    if (r != self) children.push_back(r);
  }
  return children;
}

std::vector<BcastHop> bcast_hops(BcastAlgorithm algo,
                                 const std::vector<int>& parts, int root,
                                 const std::vector<int>& node_of_rank) {
  validate_parts(parts, root, /*self=*/-1);
  std::vector<BcastHop> hops;
  hops.reserve(parts.size() > 0 ? parts.size() - 1 : 0);
  for (int from : parts) {
    for (int to : bcast_children(algo, parts, root, from, node_of_rank)) {
      hops.push_back(BcastHop{from, to});
    }
  }
  BSTC_CHECK(hops.size() + 1 == parts.size());
  return hops;
}

}  // namespace bstc
