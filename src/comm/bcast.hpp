#pragma once

/// \file bcast.hpp
/// RowBroadcast — the collective fanout of one A tile along its grid row.
///
/// The paper broadcasts every A tile from its 2D-cyclic home to the other
/// ranks of its grid row (§3.2.4). Sending q-1 independent copies would
/// make the home rank inject the same payload q-1 times; a binomial tree
/// spreads the forwarding over the receivers (log2 rounds), and a ring
/// turns the broadcast into a chain whose per-rank injection is exactly
/// one tile — the right shape once tiles are large enough to be
/// bandwidth-bound. resolve_bcast picks between them per tile; there is
/// no other selector.
///
/// Node awareness: when a rank->node map is known, the fanout is computed
/// *hierarchically* — the tree/ring runs over one leader per node (the
/// root, or the smallest participant rank on the node), and each leader
/// fans out to its co-located members locally. Inter-node hops then number
/// exactly (distinct nodes - 1) per tile, independent of how many ranks
/// share a node (Irmler et al.'s node-aware grid argument).
///
/// Every function here is a pure function of (participants, tile bytes,
/// root, topology). The transport uses it to decide who forwards to whom;
/// the plan statistics use the *same* function to predict the byte volume
/// per hop class — which is what makes the measured-vs-analytic
/// comparison exact rather than approximate. Total hop count is always
/// participants-1 (every non-root receives the tile exactly once), so the
/// aggregate broadcast volume is identical across algorithms; only its
/// distribution over links (and over the intra/inter-node split) changes.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bstc {

/// How one tile's broadcast is realised on the wire. The values are the
/// algorithm byte of a kBcast frame (0 is retired and refused on decode).
enum class BcastAlgorithm : std::uint8_t {
  kTree = 1,  ///< binomial tree over node leaders, local fanout below
  kRing = 2,  ///< leader chain root -> next -> ..., local fanout below
};

const char* bcast_algorithm_name(BcastAlgorithm algo);

/// Payload size at which the broadcast switches from tree (latency wins)
/// to ring (per-rank injection wins).
inline constexpr std::size_t kRingBcastMinBytes = 256u * 1024u;

/// The broadcast policy: tree for tiles below kRingBcastMinBytes
/// (and for any two-rank row, where both are one hop), ring at or above.
/// Deterministic, so every rank (and the plan statistics) resolves
/// identically.
BcastAlgorithm resolve_bcast(std::size_t participants, std::size_t tile_bytes);

/// Node of `rank` under the rank->node map; an empty map means the
/// topology is unknown and every rank counts as its own node.
int bcast_node_of(const std::vector<int>& node_of_rank, int rank);

/// The ranks `self` must forward the tile to, in send order.
///
/// `parts` is the full participant set (root + every consumer), strictly
/// ascending. Receivers recompute their own fanout from the same inputs
/// carried in the frame, so sender and receiver can never disagree. The
/// algorithm runs over one leader per node (root first, then remaining
/// leaders by ascending rank); a leader's children are its tree/ring
/// child leaders followed by its co-located members; non-leader members
/// are always leaves.
std::vector<int> bcast_children(BcastAlgorithm algo,
                                const std::vector<int>& parts, int root,
                                int self,
                                const std::vector<int>& node_of_rank);

/// One tile transfer of the broadcast.
struct BcastHop {
  int from = -1;
  int to = -1;
};

/// Every hop of the broadcast (union of all ranks' fanouts). Exactly
/// parts.size() - 1 hops for any algorithm; used by the plan statistics
/// to predict intra-/inter-node volume with the transport's own logic.
std::vector<BcastHop> bcast_hops(BcastAlgorithm algo,
                                 const std::vector<int>& parts, int root,
                                 const std::vector<int>& node_of_rank);

}  // namespace bstc
