// Graph serialization: SNAP-style edge-list text files (the format the
// paper's datasets ship in), and the positioned-read file the out-of-core
// block store reads through.
//
// Text format, one edge per line, '#'-prefixed comment lines ignored:
//     src dst [weight [label]]
// with unsigned 32-bit ids, a finite non-negative weight and a label in
// 0..255.
#ifndef FLEXIWALKER_SRC_GRAPH_IO_H_
#define FLEXIWALKER_SRC_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "src/graph/graph.h"

namespace flexi {

// Parses an edge-list stream. Node ids may be sparse; they are remapped
// densely in first-appearance order unless `num_nodes` is given, in which
// case ids must already be < num_nodes. Throws std::runtime_error naming the
// line on malformed input (a missing, signed, out-of-range or trailing token,
// or a negative, non-finite or unparseable weight) and on a read error, which
// leaves `in.bad()` set.
Graph ReadEdgeList(std::istream& in, NodeId num_nodes = 0);

// Writes the graph as an edge list (with weight and label columns when
// present).
void WriteEdgeList(const Graph& graph, std::ostream& out);

// Read-only random-access file for the out-of-core block store
// (block_store.h): positioned reads that are safe from concurrent callers
// (pread never moves a shared cursor), with an optional private read-only
// mmap of the whole file. In mapped mode ReadAt is a memcpy out of the
// mapping — the kernel's page cache does the staging — while the unmapped
// default keeps the process's resident set bounded by whatever the caller
// copies out, which is what the graph cache's RSS budget relies on.
class RandomAccessFile {
 public:
  RandomAccessFile() = default;
  ~RandomAccessFile();
  RandomAccessFile(RandomAccessFile&& other) noexcept;
  RandomAccessFile& operator=(RandomAccessFile&& other) noexcept;
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  // Opens `path` read-only; maps it when `map` is set. Throws
  // std::runtime_error on any failure.
  static RandomAccessFile Open(const std::string& path, bool map = false);

  // Copies exactly `bytes` at `offset` into `dst`; throws on short read.
  void ReadAt(void* dst, size_t bytes, uint64_t offset) const;

  size_t size() const { return size_; }
  bool mapped() const { return map_ != nullptr; }
  bool open() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  size_t size_ = 0;
  void* map_ = nullptr;
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_GRAPH_IO_H_
