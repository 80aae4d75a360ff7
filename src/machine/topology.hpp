#pragma once

/// \file topology.hpp
/// Node-aware rank -> grid-slot placement.
///
/// The 2D-cyclic distribution broadcasts every A tile along its grid row,
/// so the wire cost of a row is set by how many *nodes* the row spans, not
/// by how many ranks it holds (Irmler et al., node-aware processor
/// grids). The default slot = rank identity mapping ignores node
/// boundaries; node_aware_layout instead packs each grid row onto as few
/// nodes as possible, turning row-broadcast hops into intra-node traffic
/// wherever the rank counts allow it.

#include <vector>

namespace bstc {

/// Compute a node-aware grid layout for a p x q grid.
///
/// `node_of_rank[r]` is the self-reported node id of rank r and must have
/// exactly p*q entries, or none (no placement known). Returns `layout`
/// with layout[row*q + col] = rank: rows are filled greedily from
/// whichever node has the most unplaced ranks (ties to the smaller node
/// id), so each row touches the fewest nodes the multiset of node sizes
/// permits. Deterministic — every rank derives the identical permutation
/// from the welcome's node map. Each row's ranks are sorted ascending, so
/// equal node ids (single-node runs) reproduce the identity. The identity
/// is returned as an empty vector (GridSpec's and PlanConfig's
/// convention), so a run whose placement needs no permutation plans
/// exactly as a run with no map.
std::vector<int> node_aware_layout(int p, int q,
                                   const std::vector<int>& node_of_rank);

/// Number of distinct nodes covered by `ranks` under the rank -> node map
/// (empty map: every rank is its own node). Used for layout diagnostics.
int distinct_nodes(const std::vector<int>& ranks,
                   const std::vector<int>& node_of_rank);

}  // namespace bstc
