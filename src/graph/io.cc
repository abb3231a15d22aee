#include "src/graph/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace flexi {
namespace {

struct ParsedEdge {
  NodeId src;
  NodeId dst;
  float weight;
  int label;  // -1 when absent
  bool has_weight;
};

[[noreturn]] void Malformed(size_t line_no, const std::string& line) {
  throw std::runtime_error("malformed edge list at line " + std::to_string(line_no) + ": " +
                           line);
}

// The whole token as a number of type T, or false: from_chars takes no sign
// for unsigned types, no leading space and no trailing characters, and
// reports values out of T's range.
template <typename T>
bool ParseToken(const std::string& token, T& out) {
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Graph ReadEdgeList(std::istream& in, NodeId num_nodes) {
  std::vector<ParsedEdge> edges;
  std::unordered_map<NodeId, NodeId> remap;
  bool dense = num_nodes != 0;
  bool any_weight = false;
  bool any_label = false;

  auto map_id = [&](const std::string& token, size_t line_no, const std::string& line) -> NodeId {
    NodeId raw = 0;
    if (!ParseToken(token, raw) || (dense && raw >= num_nodes)) {
      Malformed(line_no, line);
    }
    if (dense) {
      return raw;
    }
    return remap.try_emplace(raw, static_cast<NodeId>(remap.size())).first->second;
  };

  std::string line;
  size_t line_no = 0;
  std::vector<std::string> tokens;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    tokens.clear();
    std::istringstream fields(line);
    for (std::string token; fields >> token;) {
      tokens.push_back(std::move(token));
    }
    if (tokens.size() < 2 || tokens.size() > 4) {
      Malformed(line_no, line);
    }
    ParsedEdge edge{};
    edge.label = -1;
    edge.weight = 1.0f;
    if (tokens.size() >= 3) {
      // Bounded as a float: a finite double such as 1e39 has no finite
      // float, and NaN fails both comparisons.
      double w = 0.0;
      if (!ParseToken(tokens[2], w) || !(w >= 0.0 && w <= std::numeric_limits<float>::max())) {
        Malformed(line_no, line);
      }
      edge.weight = static_cast<float>(w);
      edge.has_weight = true;
      any_weight = true;
    }
    if (tokens.size() == 4) {
      uint8_t label = 0;
      if (!ParseToken(tokens[3], label)) {
        Malformed(line_no, line);
      }
      edge.label = label;
      any_label = true;
    }
    edge.src = map_id(tokens[0], line_no, line);
    edge.dst = map_id(tokens[1], line_no, line);
    edges.push_back(edge);
  }
  if (in.bad()) {  // a read error, not the end: the lines so far are only part of the graph
    throw std::runtime_error("edge list read failed after line " + std::to_string(line_no));
  }

  NodeId n = dense ? num_nodes : static_cast<NodeId>(remap.size());
  // Build CSR preserving per-edge weight/label: sort-by-(src,dst) mirrors
  // GraphBuilder but carries attributes along.
  std::sort(edges.begin(), edges.end(), [](const ParsedEdge& a, const ParsedEdge& b) {
    return a.src < b.src || (a.src == b.src && a.dst < b.dst);
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const ParsedEdge& a, const ParsedEdge& b) {
                            return a.src == b.src && a.dst == b.dst;
                          }),
              edges.end());

  std::vector<EdgeId> row_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<NodeId> col_idx;
  std::vector<float> weights;
  std::vector<uint8_t> labels;
  uint8_t max_label = 0;
  col_idx.reserve(edges.size());
  for (const ParsedEdge& edge : edges) {
    ++row_ptr[edge.src + 1];
    col_idx.push_back(edge.dst);
    if (any_weight) {
      weights.push_back(edge.weight);
    }
    if (any_label) {
      uint8_t label = edge.label < 0 ? 0 : static_cast<uint8_t>(edge.label);
      labels.push_back(label);
      max_label = std::max(max_label, label);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    row_ptr[v + 1] += row_ptr[v];
  }
  Graph graph(std::move(row_ptr), std::move(col_idx));
  if (any_weight) {
    graph.SetPropertyWeights(std::move(weights));
  }
  if (any_label) {
    graph.SetEdgeLabels(std::move(labels), static_cast<uint8_t>(max_label + 1));
  }
  return graph;
}

void WriteEdgeList(const Graph& graph, std::ostream& out) {
  out << "# nodes " << graph.num_nodes() << " edges " << graph.num_edges() << "\n";
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (uint32_t i = 0; i < graph.Degree(v); ++i) {
      EdgeId e = graph.EdgesBegin(v) + i;
      out << v << ' ' << graph.Neighbor(v, i);
      if (graph.weighted()) {
        out << ' ' << graph.PropertyWeight(e);
        if (graph.labeled()) {
          out << ' ' << static_cast<int>(graph.EdgeLabel(e));
        }
      }
      out << '\n';
    }
  }
}

RandomAccessFile::~RandomAccessFile() {
  if (map_ != nullptr) {
    ::munmap(map_, size_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

RandomAccessFile::RandomAccessFile(RandomAccessFile&& other) noexcept
    : fd_(other.fd_), size_(other.size_), map_(other.map_) {
  other.fd_ = -1;
  other.size_ = 0;
  other.map_ = nullptr;
}

RandomAccessFile& RandomAccessFile::operator=(RandomAccessFile&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) {
      ::munmap(map_, size_);
    }
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    size_ = other.size_;
    map_ = other.map_;
    other.fd_ = -1;
    other.size_ = 0;
    other.map_ = nullptr;
  }
  return *this;
}

RandomAccessFile RandomAccessFile::Open(const std::string& path, bool map) {
  RandomAccessFile file;
  file.fd_ = ::open(path.c_str(), O_RDONLY);
  if (file.fd_ < 0) {
    throw std::runtime_error("RandomAccessFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(file.fd_, &st) != 0) {
    throw std::runtime_error("RandomAccessFile: fstat " + path + ": " + std::strerror(errno));
  }
  file.size_ = static_cast<size_t>(st.st_size);
  if (map && file.size_ > 0) {
    void* p = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, file.fd_, 0);
    if (p == MAP_FAILED) {
      throw std::runtime_error("RandomAccessFile: mmap " + path + ": " + std::strerror(errno));
    }
    file.map_ = p;
  }
  return file;
}

void RandomAccessFile::ReadAt(void* dst, size_t bytes, uint64_t offset) const {
  // Written so a hostile offset cannot wrap the sum past the bound.
  if (offset > size_ || bytes > size_ - offset) {
    throw std::runtime_error("RandomAccessFile: read past end of file");
  }
  if (map_ != nullptr) {
    std::memcpy(dst, static_cast<const char*>(map_) + offset, bytes);
    return;
  }
  char* out = static_cast<char*>(dst);
  size_t done = 0;
  while (done < bytes) {
    ssize_t n = ::pread(fd_, out + done, bytes - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("RandomAccessFile: pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      throw std::runtime_error("RandomAccessFile: unexpected EOF");
    }
    done += static_cast<size_t>(n);
  }
}

}  // namespace flexi
