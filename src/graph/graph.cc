#include "src/graph/graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace flexi {

void Graph::RebindOwned() {
  view_ = false;
  edge_base_ = 0;
  rp_ = row_ptr_.data();
  num_nodes_ = static_cast<NodeId>(row_ptr_.size() - 1);
  num_edges_ = row_ptr_.back();
  local_edges_ = static_cast<EdgeId>(col_idx_.size());
  col_ = col_idx_.data();
  w_ = weights_.empty() ? nullptr : weights_.data();
  lab_ = labels_.empty() ? nullptr : labels_.data();
  ts_ = timestamps_.empty() ? nullptr : timestamps_.data();
}

void Graph::RequireOwning(const char* op) const {
  if (view_) {
    throw std::logic_error(std::string("Graph: ") + op + " on a block view");
  }
}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) {
    return *this;
  }
  row_ptr_ = other.row_ptr_;
  col_idx_ = other.col_idx_;
  weights_ = other.weights_;
  labels_ = other.labels_;
  timestamps_ = other.timestamps_;
  num_labels_ = other.num_labels_;
  max_degree_ = other.max_degree_;
  if (other.view_) {
    // A view aliases external storage; the copy aliases the same storage.
    rp_ = other.rp_;
    col_ = other.col_;
    w_ = other.w_;
    lab_ = other.lab_;
    ts_ = other.ts_;
    num_nodes_ = other.num_nodes_;
    num_edges_ = other.num_edges_;
    local_edges_ = other.local_edges_;
    edge_base_ = other.edge_base_;
    view_ = true;
  } else {
    RebindOwned();
  }
  return *this;
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  row_ptr_ = std::move(other.row_ptr_);
  col_idx_ = std::move(other.col_idx_);
  weights_ = std::move(other.weights_);
  labels_ = std::move(other.labels_);
  timestamps_ = std::move(other.timestamps_);
  num_labels_ = other.num_labels_;
  max_degree_ = other.max_degree_;
  if (other.view_) {
    rp_ = other.rp_;
    col_ = other.col_;
    w_ = other.w_;
    lab_ = other.lab_;
    ts_ = other.ts_;
    num_nodes_ = other.num_nodes_;
    num_edges_ = other.num_edges_;
    local_edges_ = other.local_edges_;
    edge_base_ = other.edge_base_;
    view_ = true;
  } else {
    // Moved vectors keep their heap buffers, but rebinding is cheap and
    // keeps one invariant instead of a case analysis.
    RebindOwned();
  }
  // Leave the source valid (an empty owning graph).
  other.row_ptr_ = {0};
  other.col_idx_.clear();
  other.weights_.clear();
  other.labels_.clear();
  other.timestamps_.clear();
  other.RebindOwned();
  return *this;
}

Graph::Graph(std::vector<EdgeId> row_ptr, std::vector<NodeId> col_idx)
    : row_ptr_(std::move(row_ptr)), col_idx_(std::move(col_idx)) {
  if (row_ptr_.empty() || row_ptr_.back() != col_idx_.size()) {
    throw std::invalid_argument("Graph: row_ptr does not index col_idx");
  }
  RebindOwned();
  for (NodeId v = 0; v + 1 < row_ptr_.size(); ++v) {
    max_degree_ = std::max(max_degree_, Degree(v));
  }
}

Graph Graph::BlockView(std::span<const EdgeId> row_ptr, EdgeId edge_base,
                       std::span<const NodeId> adjacency, std::span<const float> weights,
                       std::span<const uint8_t> labels, uint8_t num_labels,
                       std::span<const float> timestamps, uint32_t max_degree) {
  if (row_ptr.empty()) {
    throw std::invalid_argument("Graph::BlockView: empty row_ptr");
  }
  if ((!weights.empty() && weights.size() != adjacency.size()) ||
      (!labels.empty() && labels.size() != adjacency.size()) ||
      (!timestamps.empty() && timestamps.size() != adjacency.size())) {
    throw std::invalid_argument("Graph::BlockView: edge array sizes differ");
  }
  Graph g;
  g.view_ = true;
  g.rp_ = row_ptr.data();
  g.num_nodes_ = static_cast<NodeId>(row_ptr.size() - 1);
  g.num_edges_ = row_ptr.back();
  g.local_edges_ = static_cast<EdgeId>(adjacency.size());
  g.edge_base_ = edge_base;
  g.col_ = adjacency.data();
  g.w_ = weights.empty() ? nullptr : weights.data();
  g.lab_ = labels.empty() ? nullptr : labels.data();
  g.ts_ = timestamps.empty() ? nullptr : timestamps.data();
  g.num_labels_ = num_labels;
  g.max_degree_ = max_degree;
  return g;
}

bool Graph::HasEdge(NodeId v, NodeId u) const {
  // Lower bound without a data-dependent jump: each halving keeps the half
  // holding the first element >= u by adding half × (comparison), which
  // compiles to a conditional move where a ternary compiles to a jump, so
  // a probe costs ceil(log2 d) loads and no mispredicted branches. Correct
  // only because rows are sorted; duplicates are harmless (any copy of u
  // is found).
  const NodeId* base = col_ + (rp_[v] - edge_base_);
  uint32_t n = Degree(v);
  if (n == 0) {
    return false;
  }
  while (n > 1) {
    uint32_t half = n / 2;
    base += half * static_cast<uint32_t>(base[half - 1] < u);
    n -= half;
  }
  return *base == u;
}

void Graph::SetPropertyWeights(std::vector<float> weights) {
  RequireOwning("SetPropertyWeights");
  if (weights.size() != col_idx_.size()) {
    throw std::invalid_argument("Graph: weight count != edge count");
  }
  weights_ = std::move(weights);
  RebindOwned();
}

void Graph::SetEdgeLabels(std::vector<uint8_t> labels, uint8_t num_labels) {
  RequireOwning("SetEdgeLabels");
  if (labels.size() != col_idx_.size()) {
    throw std::invalid_argument("Graph: label count != edge count");
  }
  labels_ = std::move(labels);
  num_labels_ = num_labels;
  RebindOwned();
}

void Graph::SetEdgeTimestamps(std::vector<float> timestamps) {
  RequireOwning("SetEdgeTimestamps");
  if (timestamps.size() != col_idx_.size()) {
    throw std::invalid_argument("Graph: timestamp count != edge count");
  }
  timestamps_ = std::move(timestamps);
  RebindOwned();
}

size_t Graph::MemoryFootprintBytes() const {
  size_t bytes = (static_cast<size_t>(num_nodes_) + 1) * sizeof(EdgeId) +
                 static_cast<size_t>(local_edges_) * sizeof(NodeId);
  if (w_ != nullptr) {
    bytes += static_cast<size_t>(local_edges_) * sizeof(float);
  }
  if (lab_ != nullptr) {
    bytes += static_cast<size_t>(local_edges_) * sizeof(uint8_t);
  }
  if (ts_ != nullptr) {
    bytes += static_cast<size_t>(local_edges_) * sizeof(float);
  }
  return bytes;
}

void GraphBuilder::AddEdge(NodeId src, NodeId dst) {
  assert(src < num_nodes_ && dst < num_nodes_);
  edges_.emplace_back(src, dst);
}

void GraphBuilder::AddUndirectedEdge(NodeId src, NodeId dst) {
  AddEdge(src, dst);
  if (src != dst) {
    AddEdge(dst, src);
  }
}

Graph GraphBuilder::Build() {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  std::vector<EdgeId> row_ptr(static_cast<size_t>(num_nodes_) + 1, 0);
  std::vector<NodeId> col_idx;
  col_idx.reserve(edges_.size());
  for (const auto& [src, dst] : edges_) {
    ++row_ptr[src + 1];
    col_idx.push_back(dst);
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    row_ptr[v + 1] += row_ptr[v];
  }
  return Graph(std::move(row_ptr), std::move(col_idx));
}

}  // namespace flexi
