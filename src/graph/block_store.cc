#include "src/graph/block_store.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace flexi {
namespace {

constexpr std::array<char, 8> kBlockMagic = {'F', 'X', 'W', 'B', 'L', 'K', '0', '1'};

// Per-edge array presence flags in the header.
constexpr uint32_t kFlagWeighted = 1u << 0;
constexpr uint32_t kFlagLabeled = 1u << 1;
constexpr uint32_t kFlagTemporal = 1u << 2;

struct FileHeader {
  uint32_t num_nodes = 0;
  uint32_t num_blocks = 0;
  uint64_t num_edges = 0;
  uint64_t block_bytes = 0;
  uint32_t flags = 0;
  uint32_t max_degree = 0;
  uint32_t num_labels = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(FileHeader) == 40);

// The on-disk block index entry; kept explicit (not BlockMeta itself) so the
// in-memory struct can evolve without a format bump.
struct DiskBlock {
  uint32_t first_node = 0;
  uint32_t node_count = 0;
  uint64_t first_edge = 0;
  uint64_t edge_count = 0;
  uint64_t payload_offset = 0;
};
static_assert(sizeof(DiskBlock) == 32);

template <typename T>
void WriteRaw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

size_t EdgeBytes(bool weighted, bool labeled, bool temporal) {
  size_t bytes = sizeof(NodeId);
  if (weighted) {
    bytes += sizeof(float);
  }
  if (labeled) {
    bytes += sizeof(uint8_t);
  }
  if (temporal) {
    bytes += sizeof(float);
  }
  return bytes;
}

}  // namespace

size_t PartitionToBlockFile(const Graph& graph, const std::string& path, size_t block_bytes) {
  if (block_bytes < kMinBlockBytes) {
    throw std::invalid_argument("PartitionToBlockFile: block_bytes below kMinBlockBytes");
  }
  const size_t per_edge = EdgeBytes(graph.weighted(), graph.labeled(), graph.temporal());
  const NodeId n = graph.num_nodes();

  // Greedy contiguous partition: extend the current block while its payload
  // stays within budget; an oversized single row closes into its own block.
  std::vector<DiskBlock> blocks;
  {
    NodeId first = 0;
    while (first < n) {
      NodeId last = first;
      size_t bytes = 0;
      while (last < n) {
        size_t row = static_cast<size_t>(graph.Degree(last)) * per_edge;
        if (last > first && bytes + row > block_bytes) {
          break;
        }
        bytes += row;
        ++last;
        if (bytes > block_bytes) {
          break;  // single oversized row — block of one node
        }
      }
      DiskBlock b;
      b.first_node = first;
      b.node_count = last - first;
      b.first_edge = graph.EdgesBegin(first);
      b.edge_count = (last < n ? graph.EdgesBegin(last) : graph.num_edges()) - b.first_edge;
      blocks.push_back(b);
      first = last;
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("PartitionToBlockFile: cannot open " + path);
  }
  FileHeader header;
  header.num_nodes = n;
  header.num_blocks = static_cast<uint32_t>(blocks.size());
  header.num_edges = graph.num_edges();
  header.block_bytes = block_bytes;
  header.flags = (graph.weighted() ? kFlagWeighted : 0) | (graph.labeled() ? kFlagLabeled : 0) |
                 (graph.temporal() ? kFlagTemporal : 0);
  header.max_degree = graph.MaxDegree();
  header.num_labels = graph.num_labels();

  // Payloads start right after header + row_ptr + index.
  uint64_t offset = sizeof(kBlockMagic) + sizeof(FileHeader) +
                    (static_cast<uint64_t>(n) + 1) * sizeof(EdgeId) +
                    blocks.size() * sizeof(DiskBlock);
  for (DiskBlock& b : blocks) {
    b.payload_offset = offset;
    offset += b.edge_count * per_edge;
  }

  out.write(kBlockMagic.data(), kBlockMagic.size());
  WriteRaw(out, header);
  std::span<const EdgeId> row = graph.row_offsets();
  out.write(reinterpret_cast<const char*>(row.data()),
            static_cast<std::streamsize>(row.size_bytes()));
  for (const DiskBlock& b : blocks) {
    WriteRaw(out, b);
  }
  for (const DiskBlock& b : blocks) {
    // Row-addressed spans so this works on any owning graph; blocks are
    // contiguous edge ranges, so one write per array covers the block.
    std::span<const NodeId> adj = graph.adjacency().subspan(b.first_edge, b.edge_count);
    out.write(reinterpret_cast<const char*>(adj.data()),
              static_cast<std::streamsize>(adj.size_bytes()));
    if (graph.weighted()) {
      std::span<const float> w = graph.property_weights().subspan(b.first_edge, b.edge_count);
      out.write(reinterpret_cast<const char*>(w.data()),
                static_cast<std::streamsize>(w.size_bytes()));
    }
    if (graph.labeled()) {
      for (EdgeId e = b.first_edge; e < b.first_edge + b.edge_count; ++e) {
        uint8_t label = graph.EdgeLabel(e);
        WriteRaw(out, label);
      }
    }
    if (graph.temporal()) {
      for (EdgeId e = b.first_edge; e < b.first_edge + b.edge_count; ++e) {
        float ts = graph.EdgeTimestamp(e);
        WriteRaw(out, ts);
      }
    }
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("PartitionToBlockFile: write failed for " + path);
  }
  return blocks.size();
}

BlockStore BlockStore::Open(const std::string& path, bool map) {
  BlockStore store;
  store.file_ = RandomAccessFile::Open(path, map);
  const uint64_t file_size = store.file_.size();
  auto corrupt = [&path](const std::string& what) {
    return std::runtime_error("BlockStore: " + what + " in " + path);
  };

  constexpr uint64_t kHeaderEnd = sizeof(kBlockMagic) + sizeof(FileHeader);
  if (file_size < kHeaderEnd) {
    throw corrupt("header truncated at " + std::to_string(file_size) + " bytes");
  }
  std::array<char, 8> magic{};
  store.file_.ReadAt(magic.data(), magic.size(), 0);
  if (magic != kBlockMagic) {
    throw corrupt("bad magic");
  }
  FileHeader header;
  store.file_.ReadAt(&header, sizeof(header), sizeof(kBlockMagic));
  store.num_nodes_ = header.num_nodes;
  store.num_edges_ = header.num_edges;
  store.block_bytes_ = header.block_bytes;
  store.max_degree_ = header.max_degree;
  store.num_labels_ = static_cast<uint8_t>(header.num_labels);
  store.weighted_ = (header.flags & kFlagWeighted) != 0;
  store.labeled_ = (header.flags & kFlagLabeled) != 0;
  store.temporal_ = (header.flags & kFlagTemporal) != 0;
  const uint64_t per_edge = store.BytesPerEdge();
  const NodeId n = store.num_nodes_;

  // The header's counts against the file size, before anything is sized by
  // them. The counts are 32-bit, so none of these sums can wrap.
  const uint64_t row_ptr_end = kHeaderEnd + (uint64_t{n} + 1) * sizeof(EdgeId);
  if (row_ptr_end > file_size) {
    throw corrupt("num_nodes " + std::to_string(n) + " puts row_ptr past the end of the file");
  }
  const uint64_t index_end = row_ptr_end + uint64_t{header.num_blocks} * sizeof(DiskBlock);
  if (index_end > file_size) {
    throw corrupt("num_blocks " + std::to_string(header.num_blocks) +
                  " puts the block index past the end of the file");
  }
  if (store.num_edges_ > (file_size - index_end) / per_edge) {
    throw corrupt("num_edges " + std::to_string(store.num_edges_) +
                  " exceeds the payload the file can hold");
  }

  store.row_ptr_.resize(static_cast<size_t>(n) + 1);
  store.file_.ReadAt(store.row_ptr_.data(), store.row_ptr_.size() * sizeof(EdgeId), kHeaderEnd);
  if (store.row_ptr_[0] != 0) {
    throw corrupt("row_ptr[0] is not 0");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (store.row_ptr_[v + 1] < store.row_ptr_[v]) {
      throw corrupt("row_ptr[" + std::to_string(v + 1) + "] decreases");
    }
  }
  if (store.row_ptr_.back() != store.num_edges_) {
    throw corrupt("row_ptr does not close at num_edges");
  }

  // The blocks tile [0, num_nodes) in order, each edge range is row_ptr's
  // at the block's bounds, and each payload lies inside the file.
  store.blocks_.resize(header.num_blocks);
  store.block_of_.resize(n);
  NodeId covered = 0;
  for (uint32_t b = 0; b < header.num_blocks; ++b) {
    DiskBlock disk;
    store.file_.ReadAt(&disk, sizeof(disk), row_ptr_end + uint64_t{b} * sizeof(DiskBlock));
    auto bad_block = [&](const std::string& what) {
      return corrupt("block[" + std::to_string(b) + "]." + what);
    };
    if (disk.first_node != covered) {
      throw bad_block("first_node " + std::to_string(disk.first_node) +
                      " does not follow the previous block's end " + std::to_string(covered));
    }
    if (disk.node_count > n - covered) {
      throw bad_block("node_count " + std::to_string(disk.node_count) + " runs past num_nodes");
    }
    const NodeId end = covered + disk.node_count;
    if (disk.first_edge != store.row_ptr_[covered]) {
      throw bad_block("first_edge does not match row_ptr");
    }
    if (disk.edge_count != store.row_ptr_[end] - store.row_ptr_[covered]) {
      throw bad_block("edge_count does not match row_ptr");
    }
    if (disk.payload_offset > file_size ||
        disk.edge_count > (file_size - disk.payload_offset) / per_edge) {
      throw bad_block("payload_offset puts the payload past the end of the file");
    }
    store.blocks_[b] = BlockMeta{disk.first_node, disk.node_count, disk.first_edge,
                                 disk.edge_count, disk.payload_offset};
    std::fill(store.block_of_.begin() + covered, store.block_of_.begin() + end, b);
    covered = end;
  }
  if (covered != n) {
    throw corrupt("blocks cover " + std::to_string(covered) + " of num_nodes " +
                  std::to_string(n) + " nodes");
  }
  return store;
}

size_t BlockStore::BytesPerEdge() const { return EdgeBytes(weighted_, labeled_, temporal_); }

void BlockStore::ReadBlock(size_t b, BlockData& out) const {
  const BlockMeta& meta = blocks_[b];
  size_t edges = static_cast<size_t>(meta.edge_count);
  uint64_t offset = meta.payload_offset;
  out.adjacency.resize(edges);
  file_.ReadAt(out.adjacency.data(), edges * sizeof(NodeId), offset);
  offset += edges * sizeof(NodeId);
  // Every id indexes the resident row_ptr and node -> block array on the
  // step that follows it. A count, not a search: it vectorizes.
  const NodeId n = num_nodes_;
  size_t out_of_range = 0;
  for (NodeId id : out.adjacency) {
    out_of_range += id >= n ? 1 : 0;
  }
  if (out_of_range > 0) {
    throw std::runtime_error("BlockStore: block " + std::to_string(b) + " holds " +
                             std::to_string(out_of_range) +
                             " adjacency ids not below num_nodes " + std::to_string(n));
  }
  if (weighted_) {
    out.weights.resize(edges);
    file_.ReadAt(out.weights.data(), edges * sizeof(float), offset);
    offset += edges * sizeof(float);
  } else {
    out.weights.clear();
  }
  if (labeled_) {
    out.labels.resize(edges);
    file_.ReadAt(out.labels.data(), edges * sizeof(uint8_t), offset);
    offset += edges * sizeof(uint8_t);
  } else {
    out.labels.clear();
  }
  if (temporal_) {
    out.timestamps.resize(edges);
    file_.ReadAt(out.timestamps.data(), edges * sizeof(float), offset);
  } else {
    out.timestamps.clear();
  }
}

Graph BlockStore::MakeBlockView(size_t b, const BlockData& data) const {
  const BlockMeta& meta = blocks_[b];
  return Graph::BlockView(row_ptr_, meta.first_edge, data.adjacency, data.weights, data.labels,
                          num_labels_, data.timestamps, max_degree_);
}

}  // namespace flexi
