#include "machine/topology.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "comm/bcast.hpp"
#include "support/error.hpp"

namespace bstc {

std::vector<int> node_aware_layout(int p, int q,
                                   const std::vector<int>& node_of_rank) {
  BSTC_REQUIRE(p > 0 && q > 0, "grid must be non-empty");
  if (node_of_rank.empty()) return {};
  const std::size_t np = static_cast<std::size_t>(p) * static_cast<std::size_t>(q);
  BSTC_REQUIRE(node_of_rank.size() == np,
               "node map must name every rank of the p*q grid");

  // node -> unplaced ranks, ascending (ranks arrive in rank order).
  std::map<int, std::vector<int>> pool;
  for (std::size_t r = 0; r < np; ++r) {
    pool[node_of_rank[r]].push_back(static_cast<int>(r));
  }

  std::vector<int> layout(np, -1);
  for (int row = 0; row < p; ++row) {
    std::vector<int> row_ranks;
    row_ranks.reserve(static_cast<std::size_t>(q));
    while (row_ranks.size() < static_cast<std::size_t>(q)) {
      // Largest pool first: a row consumes whole nodes before it has to
      // straddle one, which minimises the nodes per row.
      auto best = pool.end();
      for (auto it = pool.begin(); it != pool.end(); ++it) {
        if (best == pool.end() || it->second.size() > best->second.size()) {
          best = it;
        }
      }
      BSTC_CHECK(best != pool.end() && !best->second.empty());
      const std::size_t need = static_cast<std::size_t>(q) - row_ranks.size();
      const std::size_t take = std::min(need, best->second.size());
      row_ranks.insert(row_ranks.end(), best->second.begin(),
                       best->second.begin() + static_cast<std::ptrdiff_t>(take));
      best->second.erase(best->second.begin(),
                         best->second.begin() + static_cast<std::ptrdiff_t>(take));
      if (best->second.empty()) pool.erase(best);
    }
    std::sort(row_ranks.begin(), row_ranks.end());
    for (int col = 0; col < q; ++col) {
      layout[static_cast<std::size_t>(row) * static_cast<std::size_t>(q) +
             static_cast<std::size_t>(col)] = row_ranks[static_cast<std::size_t>(col)];
    }
  }
  BSTC_CHECK(pool.empty());
  for (std::size_t slot = 0; slot < np; ++slot) {
    if (layout[slot] != static_cast<int>(slot)) return layout;
  }
  return {};
}

int distinct_nodes(const std::vector<int>& ranks,
                   const std::vector<int>& node_of_rank) {
  std::set<int> nodes;
  for (int r : ranks) nodes.insert(bcast_node_of(node_of_rank, r));
  return static_cast<int>(nodes.size());
}

}  // namespace bstc
