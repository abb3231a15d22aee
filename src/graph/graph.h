// Compressed-sparse-row directed graph with optional edge property weights
// (h in the paper's Eq. (1)) and edge labels (for MetaPath).
//
// A Graph is either *owning* (the usual case: it holds the CSR vectors) or a
// *block view* (Graph::BlockView): a non-owning window over one edge block
// of a partitioned graph (block_store.h) plus the full resident row-offset
// array. Views carry an `edge_base_` — the global id of the block's first
// edge — and every edge-indexed accessor subtracts it, so kernels keep
// addressing edges by their global EdgeId and run unchanged over either
// form. Reads on both forms go through the same cached raw pointers; owning
// graphs have edge_base_ == 0, so the view support costs the hot path one
// subtract.
#ifndef FLEXIWALKER_SRC_GRAPH_GRAPH_H_
#define FLEXIWALKER_SRC_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace flexi {

using NodeId = uint32_t;
using EdgeId = uint64_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

// Immutable CSR graph. Adjacency lists are sorted by destination so that
// membership queries (Node2Vec's dist(v', u) test) are O(log d).
class Graph {
 public:
  Graph() { RebindOwned(); }
  Graph(std::vector<EdgeId> row_ptr, std::vector<NodeId> col_idx);

  // The read plane aliases the owned vectors (or external block storage),
  // so copies and moves must rebind rather than default-copy the pointers.
  Graph(const Graph& other) { *this = other; }
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept { *this = std::move(other); }
  Graph& operator=(Graph&& other) noexcept;

  // Non-owning view over one contiguous edge block [edge_base, edge_base +
  // adjacency.size()) covering nodes whose rows lie inside it. `row_ptr` is
  // the *full* (num_nodes + 1) global offset array — it stays resident even
  // out of core — and the edge spans hold only the block's slice. Optional
  // spans must be empty or adjacency-sized. `max_degree` should be the full
  // graph's maximum so degree-keyed heuristics behave identically to the
  // in-memory graph. The pointees must outlive the view; accessors are only
  // valid for nodes whose rows the block holds.
  static Graph BlockView(std::span<const EdgeId> row_ptr, EdgeId edge_base,
                         std::span<const NodeId> adjacency,
                         std::span<const float> weights,
                         std::span<const uint8_t> labels, uint8_t num_labels,
                         std::span<const float> timestamps, uint32_t max_degree);
  bool is_view() const { return view_; }
  EdgeId edge_base() const { return edge_base_; }

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return num_edges_; }

  uint32_t Degree(NodeId v) const {
    return static_cast<uint32_t>(rp_[v + 1] - rp_[v]);
  }
  EdgeId EdgesBegin(NodeId v) const { return rp_[v]; }

  // i-th out-neighbor of v (0 <= i < Degree(v)).
  NodeId Neighbor(NodeId v, uint32_t i) const { return col_[rp_[v] - edge_base_ + i]; }
  std::span<const NodeId> Neighbors(NodeId v) const {
    return {col_ + (rp_[v] - edge_base_), Degree(v)};
  }
  // Property weights of v's out-edges; empty for unweighted graphs.
  std::span<const float> NeighborWeights(NodeId v) const {
    if (w_ == nullptr) {
      return {};
    }
    return {w_ + (rp_[v] - edge_base_), Degree(v)};
  }

  // Raw CSR array views for prefetch staging (sampler.h's prefetch hints):
  // row_offsets()[v] is EdgesBegin(v) (and [v+1] closes the row, giving the
  // degree). The edge arrays of a block view cover only the block, so
  // row-addressed helpers (Neighbors / NeighborWeights) are the way to reach
  // edge data; local_edges() is the backing span's length.
  std::span<const EdgeId> row_offsets() const { return {rp_, static_cast<size_t>(num_nodes_) + 1}; }
  std::span<const NodeId> adjacency() const { return {col_, local_edges_}; }
  EdgeId local_edges() const { return local_edges_; }

  // True iff edge (v,u) exists: a branchless lower-bound search over v's
  // row, which must be sorted (GraphBuilder sorts every row, and block
  // files keep the order). Node2Vec's and 2nd-order PR's linked-to-prev
  // probe, so it sits inside every eRJS trial and eRVS scan.
  bool HasEdge(NodeId v, NodeId u) const;

  // Edge property weight h(e); 1.0 for unweighted graphs.
  float PropertyWeight(EdgeId e) const { return w_ == nullptr ? 1.0f : w_[e - edge_base_]; }
  bool weighted() const { return w_ != nullptr; }
  std::span<const float> property_weights() const {
    return w_ == nullptr ? std::span<const float>{} : std::span<const float>{w_, local_edges_};
  }

  // Edge label for MetaPath-style schema walks; 0 for unlabeled graphs.
  uint8_t EdgeLabel(EdgeId e) const { return lab_ == nullptr ? 0 : lab_[e - edge_base_]; }
  bool labeled() const { return lab_ != nullptr; }
  uint8_t num_labels() const { return num_labels_; }

  // Edge timestamp for temporal (CTDNE-style) walks; 0 when absent.
  float EdgeTimestamp(EdgeId e) const { return ts_ == nullptr ? 0.0f : ts_[e - edge_base_]; }
  bool temporal() const { return ts_ != nullptr; }
  void SetEdgeTimestamps(std::vector<float> timestamps);

  void SetPropertyWeights(std::vector<float> weights);

  // Overwrites one property weight in place (dynamic-graph updates, §7.2).
  // Requires the graph to be weighted and owning.
  void UpdatePropertyWeight(EdgeId e, float weight) { weights_.at(e) = weight; }
  void SetEdgeLabels(std::vector<uint8_t> labels, uint8_t num_labels);

  uint32_t MaxDegree() const { return max_degree_; }

  // Bytes required for the CSR arrays at this graph's actual size (a block
  // view reports the resident row offsets plus its own edge slice). Used by
  // benches to extrapolate the memory footprint of the full-scale datasets
  // that the named stand-ins represent.
  size_t MemoryFootprintBytes() const;

 private:
  // Points the read plane at the owned vectors.
  void RebindOwned();
  void RequireOwning(const char* op) const;

  // Owned storage; all empty in a block view.
  std::vector<EdgeId> row_ptr_{0};
  std::vector<NodeId> col_idx_;
  std::vector<float> weights_;
  std::vector<uint8_t> labels_;
  std::vector<float> timestamps_;
  uint8_t num_labels_ = 0;
  uint32_t max_degree_ = 0;

  // Read plane: every accessor goes through these. For owning graphs they
  // alias the vectors above with edge_base_ == 0; for block views they alias
  // external storage and edge_base_ is the block's first global edge id.
  const EdgeId* rp_ = nullptr;
  const NodeId* col_ = nullptr;
  const float* w_ = nullptr;
  const uint8_t* lab_ = nullptr;
  const float* ts_ = nullptr;
  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;    // total edges of the (full) graph
  EdgeId local_edges_ = 0;  // edges backing col_ (== num_edges_ when owning)
  EdgeId edge_base_ = 0;
  bool view_ = false;
};

// Accumulates directed edges, deduplicates, sorts adjacency, emits a Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  void AddEdge(NodeId src, NodeId dst);
  // Adds both (src,dst) and (dst,src).
  void AddUndirectedEdge(NodeId src, NodeId dst);

  Graph Build();

 private:
  NodeId num_nodes_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_GRAPH_GRAPH_H_
