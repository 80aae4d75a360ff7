#include "plan/builder.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "plan/column_assignment.hpp"
#include "support/error.hpp"

namespace bstc {

std::vector<std::uint32_t> slice_rows(std::size_t tile_rows, int p, int r) {
  BSTC_REQUIRE(p > 0 && r >= 0 && r < p, "invalid grid row");
  std::vector<std::uint32_t> rows;
  for (std::size_t i = static_cast<std::size_t>(r); i < tile_rows;
       i += static_cast<std::size_t>(p)) {
    rows.push_back(static_cast<std::uint32_t>(i));
  }
  return rows;
}

std::vector<ColumnPiece> make_pieces(const Shape& b, const Shape& c,
                                     std::span<const std::uint32_t> slice,
                                     std::span<const std::uint32_t> cols,
                                     double capacity) {
  BSTC_REQUIRE(capacity > 0.0, "capacity must be positive");
  std::vector<ColumnPiece> pieces;
  for (const std::uint32_t j : cols) {
    const auto n_ext = static_cast<double>(b.col_tiling().tile_extent(j));

    // Local C footprint of this column: C tiles of the slice rows.
    double c_bytes = 0.0;
    for (const std::uint32_t i : slice) {
      if (c.nonzero(i, j)) {
        c_bytes += 8.0 * n_ext *
                   static_cast<double>(c.row_tiling().tile_extent(i));
      }
    }

    // Nonzero B tiles of the column, in k order.
    std::vector<std::uint32_t> ks;
    double b_bytes = 0.0;
    for (std::size_t k = 0; k < b.tile_rows(); ++k) {
      if (b.nonzero(k, j)) {
        ks.push_back(static_cast<std::uint32_t>(k));
        b_bytes += 8.0 * n_ext *
                   static_cast<double>(b.row_tiling().tile_extent(k));
      }
    }

    if (b_bytes + c_bytes <= capacity || ks.empty()) {
      ColumnPiece piece;
      piece.col = j;
      piece.ks = std::move(ks);
      piece.b_bytes = b_bytes;
      piece.c_bytes = c_bytes;
      pieces.push_back(std::move(piece));
      continue;
    }

    // Oversized column: split the k list into consecutive segments whose
    // B bytes + (replicated) C bytes fit the capacity. Each segment
    // re-loads the C tiles, so the C accumulation across segments stays
    // on-device per segment and is reduced in host memory.
    ColumnPiece seg;
    seg.col = j;
    seg.c_bytes = c_bytes;
    seg.segmented = true;
    for (const std::uint32_t k : ks) {
      const double tile_bytes =
          8.0 * n_ext * static_cast<double>(b.row_tiling().tile_extent(k));
      if (!seg.ks.empty() &&
          seg.b_bytes + tile_bytes + seg.c_bytes > capacity) {
        pieces.push_back(std::move(seg));
        seg = ColumnPiece{};
        seg.col = j;
        seg.c_bytes = c_bytes;
        seg.segmented = true;
      }
      seg.ks.push_back(k);
      seg.b_bytes += tile_bytes;
    }
    if (!seg.ks.empty()) pieces.push_back(std::move(seg));
  }
  return pieces;
}

std::vector<BlockPlan> partition_blocks(std::vector<ColumnPiece> pieces,
                                        double capacity, int gpus,
                                        PackingPolicy policy) {
  BSTC_REQUIRE(capacity > 0.0, "capacity must be positive");
  BSTC_REQUIRE(gpus > 0, "need at least one GPU");

  // Sort by non-increasing memory footprint (paper §3.2.2); stable on ties
  // for determinism.
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const ColumnPiece& a, const ColumnPiece& b) {
                     return a.bytes() > b.bytes();
                   });

  std::vector<BlockPlan> blocks(static_cast<std::size_t>(gpus));
  for (int g = 0; g < gpus; ++g) {
    blocks[static_cast<std::size_t>(g)].gpu = static_cast<std::uint32_t>(g);
  }
  std::vector<std::size_t> blocks_per_gpu(static_cast<std::size_t>(gpus), 1);

  for (ColumnPiece& piece : pieces) {
    // Pick a block according to the packing policy (worst fit per §3.2.2;
    // first/best fit kept as ablation baselines).
    std::size_t best = blocks.size();
    double best_remaining = -1.0;
    for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
      const double remaining = capacity - blocks[blk].bytes;
      if (piece.bytes() > remaining) continue;
      switch (policy) {
        case PackingPolicy::kWorstFit:
          if (remaining > best_remaining) {
            best_remaining = remaining;
            best = blk;
          }
          break;
        case PackingPolicy::kBestFit:
          if (best == blocks.size() || remaining < best_remaining) {
            best_remaining = remaining;
            best = blk;
          }
          break;
        case PackingPolicy::kFirstFit:
          if (best == blocks.size()) {
            best_remaining = remaining;
            best = blk;
          }
          break;
      }
    }
    if (best == blocks.size()) {
      // Fits nowhere: new block on the GPU with the fewest blocks.
      const auto gpu = static_cast<std::uint32_t>(
          std::min_element(blocks_per_gpu.begin(), blocks_per_gpu.end()) -
          blocks_per_gpu.begin());
      BlockPlan fresh;
      fresh.gpu = gpu;
      fresh.oversized = piece.bytes() > capacity;
      ++blocks_per_gpu[gpu];
      blocks.push_back(std::move(fresh));
      best = blocks.size() - 1;
    }
    blocks[best].bytes += piece.bytes();
    blocks[best].pieces.push_back(std::move(piece));
  }

  // Drop blocks that received no pieces (possible when there are more
  // GPUs than pieces).
  std::erase_if(blocks, [](const BlockPlan& b) { return b.pieces.empty(); });
  return blocks;
}

double block_flops(const Shape& a, const Shape& c,
                   std::span<const std::uint32_t> slice,
                   const BlockPlan& block) {
  double flops = 0.0;
  std::vector<std::uint64_t> kbits(a.words_per_row());
  for (const ColumnPiece& piece : block.pieces) {
    std::fill(kbits.begin(), kbits.end(), 0);
    for (const std::uint32_t k : piece.ks) {
      kbits[k / 64] |= std::uint64_t{1} << (k % 64);
    }
    const auto n_ext =
        static_cast<double>(c.col_tiling().tile_extent(piece.col));
    for (const std::uint32_t i : slice) {
      if (!c.nonzero(i, piece.col)) continue;
      const std::uint64_t* a_row = a.row_bits(i);
      double k_ext = 0.0;
      for (std::size_t w = 0; w < kbits.size(); ++w) {
        std::uint64_t bits = kbits[w] & a_row[w];
        while (bits) {
          k_ext += static_cast<double>(a.col_tiling().tile_extent(
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
          bits &= bits - 1;
        }
      }
      flops += 2.0 * static_cast<double>(a.row_tiling().tile_extent(i)) *
               n_ext * k_ext;
    }
  }
  return flops;
}

void deal_blocks(std::vector<BlockPlan>& blocks, std::span<const double> flops,
                 int gpus) {
  BSTC_REQUIRE(gpus > 0, "need at least one GPU");
  BSTC_REQUIRE(flops.size() == blocks.size(), "one flop count per block");
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return flops[x] > flops[y];
                   });
  const auto period = 2 * static_cast<std::size_t>(gpus);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t phase = pos % period;
    blocks[order[pos]].gpu = static_cast<std::uint32_t>(
        phase < period / 2 ? phase : period - 1 - phase);
  }
}

bool leaves_room_for_a_chunk(const BlockPlan& block, double gpu_memory_bytes) {
  double largest = 0.0;
  for (const Chunk& chunk : block.chunks) {
    largest = std::max(largest, chunk.a_bytes);
  }
  return gpu_memory_bytes - block.bytes >= largest;
}

bool leaves_room_for_a_chunk(const ExecutionPlan& plan,
                             double gpu_memory_bytes) {
  for (const NodePlan& node : plan.nodes) {
    for (const BlockPlan& block : node.blocks) {
      if (!leaves_room_for_a_chunk(block, gpu_memory_bytes)) return false;
    }
  }
  return true;
}

std::vector<Chunk> segment_chunks(const Shape& a, const Shape& c,
                                  std::span<const std::uint32_t> slice,
                                  const BlockPlan& block,
                                  double chunk_capacity) {
  BSTC_REQUIRE(chunk_capacity > 0.0, "chunk capacity must be positive");
  const std::size_t words = a.words_per_row();

  // Per-piece bitmap over A's tile columns (the k range).
  std::vector<std::vector<std::uint64_t>> piece_kbits;
  piece_kbits.reserve(block.pieces.size());
  for (const ColumnPiece& piece : block.pieces) {
    std::vector<std::uint64_t> bits(words, 0);
    for (const std::uint32_t k : piece.ks) {
      bits[k / 64] |= std::uint64_t{1} << (k % 64);
    }
    piece_kbits.push_back(std::move(bits));
  }

  // needed[local row] = sorted list of k's whose A tile participates in at
  // least one GEMM of this block.
  std::vector<std::vector<std::uint32_t>> needed(slice.size());
  std::vector<std::uint64_t> row_mask(words);
  for (std::size_t li = 0; li < slice.size(); ++li) {
    const std::uint32_t i = slice[li];
    std::fill(row_mask.begin(), row_mask.end(), 0);
    for (std::size_t pc = 0; pc < block.pieces.size(); ++pc) {
      if (c.nonzero(i, block.pieces[pc].col)) {
        for (std::size_t w = 0; w < words; ++w) {
          row_mask[w] |= piece_kbits[pc][w];
        }
      }
    }
    const std::uint64_t* a_row = a.row_bits(i);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = row_mask[w] & a_row[w];
      while (bits) {
        needed[li].push_back(static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
  }

  // Build chunks: add one tile per slice row in cyclic fashion until the
  // chunk budget is exhausted (paper §3.2.3). A chunk always accepts at
  // least one tile so progress is guaranteed even for huge tiles.
  std::vector<Chunk> chunks;
  std::vector<std::size_t> cursor(slice.size(), 0);
  std::size_t remaining = 0;
  for (const auto& ks : needed) remaining += ks.size();

  Chunk current;
  while (remaining > 0) {
    bool advanced = false;
    for (std::size_t li = 0; li < slice.size() && remaining > 0; ++li) {
      if (cursor[li] >= needed[li].size()) continue;
      const std::uint32_t i = slice[li];
      const std::uint32_t k = needed[li][cursor[li]];
      const double tile_bytes =
          8.0 * static_cast<double>(a.row_tiling().tile_extent(i)) *
          static_cast<double>(a.col_tiling().tile_extent(k));
      if (!current.a_tiles.empty() &&
          current.a_bytes + tile_bytes > chunk_capacity) {
        chunks.push_back(std::move(current));
        current = Chunk{};
      }
      current.a_tiles.emplace_back(i, k);
      current.a_bytes += tile_bytes;
      ++cursor[li];
      --remaining;
      advanced = true;
    }
    BSTC_CHECK(advanced || remaining == 0);
  }
  if (!current.a_tiles.empty()) chunks.push_back(std::move(current));
  return chunks;
}

ExecutionPlan build_plan(const Shape& a, const Shape& b, const Shape& c,
                         const MachineModel& machine, const PlanConfig& cfg) {
  BSTC_REQUIRE(a.col_tiling() == b.row_tiling(),
               "inner tilings of A and B must agree");
  BSTC_REQUIRE(c.tile_rows() == a.tile_rows() &&
                   c.tile_cols() == b.tile_cols(),
               "C shape must be conformant with the product");
  BSTC_REQUIRE(cfg.p >= 1, "grid needs at least one row");
  BSTC_REQUIRE(machine.nodes >= cfg.p, "more grid rows than nodes");
  BSTC_REQUIRE(cfg.block_mem_fraction > 0.0 && cfg.block_mem_fraction <= 1.0,
               "block fraction must be in (0,1]");
  BSTC_REQUIRE(cfg.prefetch_depth >= 1, "prefetch depth must be at least 1");
  BSTC_REQUIRE(cfg.chunk_mem_fraction > 0.0 &&
                   cfg.block_mem_fraction +
                           static_cast<double>(cfg.prefetch_depth) *
                               cfg.chunk_mem_fraction <=
                       1.0 + 1e-9,
               "block + resident chunk budgets exceed GPU memory");

  ExecutionPlan plan;
  plan.grid.p = cfg.p;
  plan.grid.q = machine.nodes / cfg.p;
  if (!cfg.rank_layout.empty()) {
    BSTC_REQUIRE(cfg.rank_layout.size() ==
                     static_cast<std::size_t>(plan.grid.nodes()),
                 "rank layout must cover every grid slot");
    std::vector<bool> seen(cfg.rank_layout.size(), false);
    for (const int r : cfg.rank_layout) {
      BSTC_REQUIRE(r >= 0 && static_cast<std::size_t>(r) < seen.size() &&
                       !seen[static_cast<std::size_t>(r)],
                   "rank layout must be a permutation of the ranks");
      seen[static_cast<std::size_t>(r)] = true;
    }
    plan.grid.layout = cfg.rank_layout;
  }
  plan.config = cfg;
  plan.gpu_memory_bytes = machine.node.gpu.memory_bytes;
  plan.nodes.resize(static_cast<std::size_t>(plan.grid.nodes()));
  plan.gpus_of_node.resize(static_cast<std::size_t>(plan.grid.nodes()));
  for (int nid = 0; nid < plan.grid.nodes(); ++nid) {
    plan.gpus_of_node[static_cast<std::size_t>(nid)] =
        machine.gpus_on_node(nid);
    BSTC_REQUIRE(plan.gpus_of_node[static_cast<std::size_t>(nid)] > 0,
                 "every grid node needs at least one GPU");
  }

  const double block_capacity =
      cfg.block_mem_fraction * machine.node.gpu.memory_bytes;
  const double chunk_capacity =
      cfg.chunk_mem_fraction * machine.node.gpu.memory_bytes;

  for (int r = 0; r < plan.grid.p; ++r) {
    const std::vector<std::uint32_t> slice = slice_rows(a.tile_rows(), cfg.p, r);

    // Column flop weights against this grid row's A slice (§3.2.1).
    std::vector<double> weight_k(a.tile_cols(), 0.0);
    for (const std::uint32_t i : slice) {
      const std::uint64_t* row = a.row_bits(i);
      const auto m_ext = static_cast<double>(a.row_tiling().tile_extent(i));
      for (std::size_t w = 0; w < a.words_per_row(); ++w) {
        std::uint64_t bits = row[w];
        while (bits) {
          const auto k =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          weight_k[k] += m_ext;
          bits &= bits - 1;
        }
      }
    }
    std::vector<double> col_flops(b.tile_cols(), 0.0);
    for (std::size_t k = 0; k < b.tile_rows(); ++k) {
      if (weight_k[k] == 0.0) continue;
      const auto k_ext = static_cast<double>(b.row_tiling().tile_extent(k));
      const std::uint64_t* row = b.row_bits(k);
      for (std::size_t w = 0; w < b.words_per_row(); ++w) {
        std::uint64_t bits = row[w];
        while (bits) {
          const auto j =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          col_flops[j] += 2.0 * weight_k[k] * k_ext *
                          static_cast<double>(b.col_tiling().tile_extent(j));
          bits &= bits - 1;
        }
      }
    }

    ColumnAssignment assignment;
    switch (cfg.assignment) {
      case AssignmentPolicy::kMirroredCyclic:
        assignment = assign_columns_mirrored_cyclic(col_flops, plan.grid.q);
        break;
      case AssignmentPolicy::kCyclic:
        assignment = assign_columns_cyclic(col_flops, plan.grid.q);
        break;
      case AssignmentPolicy::kLpt:
        assignment = assign_columns_lpt(col_flops, plan.grid.q);
        break;
    }

    for (int col = 0; col < plan.grid.q; ++col) {
      NodePlan& node =
          plan.nodes[static_cast<std::size_t>(plan.grid.node_id(r, col))];
      node.grid_row = r;
      node.grid_col = col;
      node.columns = assignment.columns_of[static_cast<std::size_t>(col)];
      node.column_flops = assignment.flops_of[static_cast<std::size_t>(col)];

      std::vector<ColumnPiece> pieces =
          make_pieces(b, c, slice, node.columns, block_capacity);
      // Columns with no nonzero B tile carry no work; drop them here (they
      // remain listed in node.columns for ownership bookkeeping).
      std::erase_if(pieces,
                    [](const ColumnPiece& piece) { return piece.ks.empty(); });
      const int gpus =
          plan.gpus_of_node[static_cast<std::size_t>(plan.grid.node_id(r, col))];
      node.blocks = partition_blocks(std::move(pieces), block_capacity, gpus,
                                     cfg.packing);
      std::vector<double> flops;
      for (BlockPlan& block : node.blocks) {
        block.chunks = segment_chunks(a, c, slice, block, chunk_capacity);
        flops.push_back(block_flops(a, c, slice, block));
      }
      deal_blocks(node.blocks, flops, gpus);
    }
  }
  return plan;
}

}  // namespace bstc
