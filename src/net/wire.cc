#include "src/net/wire.h"

#include <bit>
#include <cstring>

namespace flexi {
namespace {

constexpr size_t kHeaderBytes = 8;  // magic + payload length

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) | static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

// Bulk little-endian append of a u32 span — the response payload body. On a
// little-endian host (every deployment target) this is one memcpy-style
// insert of the arena slice; the byte-by-byte loop is the big-endian
// fallback that keeps the wire format fixed.
void PutU32Span(std::vector<uint8_t>& out, std::span<const uint32_t> values) {
  if constexpr (std::endian::native == std::endian::little) {
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(values.data());
    out.insert(out.end(), bytes, bytes + values.size() * sizeof(uint32_t));
  } else {
    for (uint32_t v : values) {
      PutU32(out, v);
    }
  }
}

// Patches the payload-length field once the payload has been appended, so
// serializers never compute sizes twice.
class FrameWriter {
 public:
  FrameWriter(std::vector<uint8_t>& out, FrameType type) : out_(out), start_(out.size()) {
    PutU32(out_, kWireMagic);
    PutU32(out_, 0);  // payload length, patched in the destructor
    out_.push_back(static_cast<uint8_t>(type));
  }

  ~FrameWriter() {
    uint32_t payload = static_cast<uint32_t>(out_.size() - start_ - kHeaderBytes);
    out_[start_ + 4] = static_cast<uint8_t>(payload);
    out_[start_ + 5] = static_cast<uint8_t>(payload >> 8);
    out_[start_ + 6] = static_cast<uint8_t>(payload >> 16);
    out_[start_ + 7] = static_cast<uint8_t>(payload >> 24);
  }

 private:
  std::vector<uint8_t>& out_;
  size_t start_;
};

}  // namespace

const char* WireErrorCodeName(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kMalformedFrame:
      return "malformed frame";
    case WireErrorCode::kNodeOutOfRange:
      return "node out of range";
    case WireErrorCode::kOverloaded:
      return "overloaded";
    case WireErrorCode::kShuttingDown:
      return "shutting down";
    case WireErrorCode::kRequestTooLarge:
      return "request too large";
    case WireErrorCode::kUnknownWorkload:
      return "unknown workload";
    case WireErrorCode::kDeadlineExceeded:
      return "deadline exceeded";
    case WireErrorCode::kDraining:
      return "draining";
  }
  return "unknown";
}

void AppendRequestFrame(std::vector<uint8_t>& out, const WireRequest& request) {
  FrameWriter frame(out, FrameType::kRequest);
  PutU64(out, request.tag);
  PutU32(out, request.workload_id);
  PutU64(out, request.deadline_us);
  PutU32(out, static_cast<uint32_t>(request.starts.size()));
  for (NodeId start : request.starts) {
    PutU32(out, start);
  }
}

void AppendResponseFrame(std::vector<uint8_t>& out, const WireResponseView& response) {
  FrameWriter frame(out, FrameType::kResponse);
  PutU64(out, response.tag);
  PutU64(out, response.first_query_id);
  PutU32(out, response.path_stride);
  PutU32(out, response.num_queries);
  PutU32Span(out, response.paths);
}

void AppendResponseFrame(std::vector<uint8_t>& out, const WireResponse& response) {
  AppendResponseFrame(out, WireResponseView{response.tag, response.first_query_id,
                                            response.path_stride, response.num_queries,
                                            response.paths});
}

NodeId* BuildPlacedResponseFrame(std::vector<uint8_t>& out, uint64_t tag, uint32_t path_stride,
                                 uint32_t num_queries) {
  size_t nodes = size_t{path_stride} * num_queries;
  size_t payload = 25 + nodes * 4;  // type..count header + path nodes
  out.clear();
  out.reserve(kPlacedFramePad + kHeaderBytes + payload);
  out.resize(kPlacedFramePad, 0);
  PutU32(out, kWireMagic);
  PutU32(out, static_cast<uint32_t>(payload));
  out.push_back(static_cast<uint8_t>(FrameType::kResponse));
  PutU64(out, tag);
  PutU64(out, 0);  // first_query_id, patched at completion
  PutU32(out, path_stride);
  PutU32(out, num_queries);
  size_t payload_offset = out.size();
  // kInvalidNode is 0xFFFFFFFF, so a 0xFF fill prefills the rows exactly
  // like an owning PathArena does.
  out.resize(out.size() + nodes * 4, 0xFF);
  NodeId* rows = reinterpret_cast<NodeId*>(out.data() + payload_offset);
  // vector storage is allocator-aligned well past 4; the pad exists to keep
  // the payload offset (36) a multiple of sizeof(NodeId) on top of that.
  return (reinterpret_cast<uintptr_t>(rows) % alignof(NodeId)) == 0 ? rows : nullptr;
}

void PatchPlacedResponseQueryId(std::vector<uint8_t>& frame, uint64_t first_query_id) {
  constexpr size_t kOffset = kPlacedFramePad + kHeaderBytes + 1 + 8;  // after type + tag
  for (int i = 0; i < 8; ++i) {
    frame[kOffset + i] = static_cast<uint8_t>(first_query_id >> (8 * i));
  }
}

void AppendErrorFrame(std::vector<uint8_t>& out, const WireError& error) {
  FrameWriter frame(out, FrameType::kError);
  PutU64(out, error.tag);
  PutU32(out, static_cast<uint32_t>(error.code));
  PutU32(out, static_cast<uint32_t>(error.message.size()));
  out.insert(out.end(), error.message.begin(), error.message.end());
}

void AppendStatsRequestFrame(std::vector<uint8_t>& out, const WireStatsRequest& request) {
  FrameWriter frame(out, FrameType::kStatsRequest);
  PutU64(out, request.tag);
}

void AppendStatsResponseFrame(std::vector<uint8_t>& out, const WireStatsResponse& response) {
  FrameWriter frame(out, FrameType::kStatsResponse);
  PutU64(out, response.tag);
  PutU32(out, static_cast<uint32_t>(response.text.size()));
  out.insert(out.end(), response.text.begin(), response.text.end());
}

DecodeStatus DecodeFrame(const uint8_t* data, size_t size, size_t max_payload, WireFrame& out,
                         size_t& consumed) {
  if (size < kHeaderBytes) {
    // Reject a bad magic as soon as the bytes that disagree arrive: garbage
    // should not be able to stall a reader in kNeedMore forever.
    for (size_t i = 0; i < size && i < 4; ++i) {
      if (data[i] != static_cast<uint8_t>(kWireMagic >> (8 * i))) {
        return DecodeStatus::kMalformed;
      }
    }
    return DecodeStatus::kNeedMore;
  }
  if (GetU32(data) != kWireMagic) {
    return DecodeStatus::kMalformed;
  }
  size_t payload = GetU32(data + 4);
  if (payload < 1 || payload > max_payload) {
    return DecodeStatus::kMalformed;
  }
  if (size < kHeaderBytes + payload) {
    return DecodeStatus::kNeedMore;
  }
  const uint8_t* body = data + kHeaderBytes;
  WireFrame frame;
  switch (body[0]) {
    case static_cast<uint8_t>(FrameType::kRequest): {
      // type(1) tag(8) workload_id(4) deadline_us(8) count(4), then starts.
      if (payload < 25) {
        return DecodeStatus::kMalformed;
      }
      uint64_t count = GetU32(body + 21);
      if (payload != 25 + count * 4) {
        return DecodeStatus::kMalformed;
      }
      frame.type = FrameType::kRequest;
      frame.request.tag = GetU64(body + 1);
      frame.request.workload_id = GetU32(body + 9);
      frame.request.deadline_us = GetU64(body + 13);
      frame.request.starts.resize(count);
      for (uint64_t i = 0; i < count; ++i) {
        frame.request.starts[i] = GetU32(body + 25 + i * 4);
      }
      break;
    }
    case static_cast<uint8_t>(FrameType::kResponse): {
      if (payload < 25) {
        return DecodeStatus::kMalformed;
      }
      uint64_t stride = GetU32(body + 17);
      uint64_t queries = GetU32(body + 21);
      uint64_t nodes = stride * queries;  // two u32 factors: no u64 overflow
      if (nodes > max_payload / 4 || payload != 25 + nodes * 4) {
        return DecodeStatus::kMalformed;
      }
      frame.type = FrameType::kResponse;
      frame.response.tag = GetU64(body + 1);
      frame.response.first_query_id = GetU64(body + 9);
      frame.response.path_stride = static_cast<uint32_t>(stride);
      frame.response.num_queries = static_cast<uint32_t>(queries);
      frame.response.paths.resize(nodes);
      for (uint64_t i = 0; i < nodes; ++i) {
        frame.response.paths[i] = GetU32(body + 25 + i * 4);
      }
      break;
    }
    case static_cast<uint8_t>(FrameType::kError): {
      if (payload < 17) {
        return DecodeStatus::kMalformed;
      }
      uint64_t msg_len = GetU32(body + 13);
      if (payload != 17 + msg_len) {
        return DecodeStatus::kMalformed;
      }
      frame.type = FrameType::kError;
      frame.error.tag = GetU64(body + 1);
      frame.error.code = static_cast<WireErrorCode>(GetU32(body + 9));
      frame.error.message.assign(reinterpret_cast<const char*>(body + 17), msg_len);
      break;
    }
    case static_cast<uint8_t>(FrameType::kStatsRequest): {
      if (payload != 9) {
        return DecodeStatus::kMalformed;
      }
      frame.type = FrameType::kStatsRequest;
      frame.stats_request.tag = GetU64(body + 1);
      break;
    }
    case static_cast<uint8_t>(FrameType::kStatsResponse): {
      if (payload < 13) {
        return DecodeStatus::kMalformed;
      }
      uint64_t text_len = GetU32(body + 9);
      if (payload != 13 + text_len) {
        return DecodeStatus::kMalformed;
      }
      frame.type = FrameType::kStatsResponse;
      frame.stats_response.tag = GetU64(body + 1);
      frame.stats_response.text.assign(reinterpret_cast<const char*>(body + 13), text_len);
      break;
    }
    default:
      return DecodeStatus::kMalformed;
  }
  out = std::move(frame);
  consumed = kHeaderBytes + payload;
  return DecodeStatus::kFrame;
}

void FrameDecoder::Append(const uint8_t* data, size_t size) {
  // Compact the consumed prefix before growing; steady-state connections
  // keep the buffer at roughly one frame.
  if (offset_ > 0 && (offset_ >= buffer_.size() || offset_ > (64u << 10))) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<ptrdiff_t>(offset_));
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

DecodeStatus FrameDecoder::Next(WireFrame& out) {
  size_t consumed = 0;
  DecodeStatus status =
      DecodeFrame(buffer_.data() + offset_, buffer_.size() - offset_, max_payload_, out, consumed);
  if (status == DecodeStatus::kFrame) {
    offset_ += consumed;
  }
  return status;
}

}  // namespace flexi
