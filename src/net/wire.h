// Wire protocol for the TCP serving front-end (walk_server.h / walk_client.h):
// length-prefixed binary frames over a byte stream.
//
// Every frame is `u32 magic | u32 payload_len | payload`, all fixed-width
// fields little-endian. The payload starts with a one-byte frame type:
//
//   kRequest   u8 type | u64 tag | u32 workload_id | u64 deadline_us |
//              u32 count | count * u32 start nodes
//   kResponse  u8 type | u64 tag | u64 first_query_id | u32 path_stride |
//              u32 num_queries | num_queries * path_stride * u32 path nodes
//   kError     u8 type | u64 tag | u32 code | u32 msg_len | msg bytes
//   kStatsRequest  u8 type | u64 tag
//   kStatsResponse u8 type | u64 tag | u32 text_len | text bytes
//
// A request's workload_id routes it to one of a multi-workload server's
// registered WalkServices (0 = the default workload). Its deadline_us is the
// request's *relative* latency budget in microseconds (0 = no deadline; the
// sender's clock never crosses the wire). The server converts it to an
// absolute monotonic deadline when the frame arrives and sheds the request —
// answering kDeadlineExceeded — at decode, at coalescer flush, or
// cooperatively mid-walk, whichever catches it first (docs/SERVING.md,
// "Deadlines, retries, and drain"). Responses and errors are workload-
// agnostic, matched by tag.
//
// kStatsRequest/kStatsResponse are the telemetry scrape: the server answers
// with its MetricsRegistry rendered in Prometheus text exposition format
// (src/obs/metrics.h), so the same payload a --metrics-out dump writes is
// what WalkClient::FetchStats() and `flexiwalker_cli --stats` read over the
// wire. Stats frames interleave freely with requests on one connection and
// are matched by tag like any response.
//
// The tag is a client-chosen correlation id echoed back verbatim, so one
// connection can pipeline many requests and match responses arriving in any
// order (the server's coalescer may merge and reorder completions). The
// response's first_query_id is the service-global id of the request's first
// query — the replay handle of docs/SERVING.md, now visible across the wire.
//
// Decoding is defensive by construction: a frame is only accepted when the
// magic matches, the declared payload fits the configured ceiling, the type
// byte is known, and the payload length agrees *exactly* with the counts it
// declares. Anything else is kMalformed — the stream is considered desynced
// and the connection should be closed. Truncated input is kNeedMore, never
// an error, so readers can feed partial socket reads safely. net_test.cc
// drives round-trips, truncation, oversize, and garbage through this.
#ifndef FLEXIWALKER_SRC_NET_WIRE_H_
#define FLEXIWALKER_SRC_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace flexi {

inline constexpr uint32_t kWireMagic = 0x464C5857;  // "FLXW"

// Ceiling on a single frame's payload. 64 MiB holds ~16M path nodes — far
// beyond any sane batch — while keeping a hostile length field from
// ballooning a connection buffer.
inline constexpr size_t kDefaultMaxFramePayload = 64ull << 20;

// Type bytes 1 and 4 are unassigned; they decode as kMalformed.
enum class FrameType : uint8_t {
  kResponse = 2,
  kError = 3,
  kStatsRequest = 5,   // telemetry scrape probe (tag only)
  kStatsResponse = 6,  // Prometheus text payload, matched by tag
  kRequest = 7,        // tag, workload_id, deadline_us, starts
};

enum class WireErrorCode : uint32_t {
  kMalformedFrame = 1,    // undecodable bytes; the server closes the connection
  kNodeOutOfRange = 2,    // a start id >= the served graph's node count
  kOverloaded = 3,        // backpressure rejection (BatchCoalescer admission)
  kShuttingDown = 4,      // server stopping; request not accepted
  kRequestTooLarge = 5,   // more starts than the server's per-request cap
  kUnknownWorkload = 6,   // workload_id with no registered workload
  kDeadlineExceeded = 7,  // the request's deadline_us budget lapsed before completion
  kDraining = 8,          // server draining (BeginDrain); retry against a healthy replica
};

const char* WireErrorCodeName(WireErrorCode code);

struct WireRequest {
  uint64_t tag = 0;
  uint32_t workload_id = 0;  // 0 = default workload
  std::vector<NodeId> starts;
  // Relative latency budget in microseconds; 0 = no deadline. The receiver
  // anchors it to its own monotonic clock at decode time — absolute
  // timestamps never cross the wire. (Declared after `starts` so
  // {tag, workload_id, starts} initializers stay valid.)
  uint64_t deadline_us = 0;
};

struct WireResponse {
  uint64_t tag = 0;
  uint64_t first_query_id = 0;
  uint32_t path_stride = 0;
  uint32_t num_queries = 0;
  std::vector<NodeId> paths;  // num_queries rows of path_stride nodes
};

struct WireError {
  uint64_t tag = 0;  // 0 when the error is not attributable to one request
  WireErrorCode code = WireErrorCode::kMalformedFrame;
  std::string message;
};

struct WireStatsRequest {
  uint64_t tag = 0;
};

struct WireStatsResponse {
  uint64_t tag = 0;
  std::string text;  // Prometheus text exposition of the server's registry
};

// A response whose path rows live in borrowed storage — a slice of the
// serving stack's per-batch PathArena. Serializing one of these copies the
// nodes exactly once, arena bytes -> frame bytes; no owning WireResponse is
// ever materialized on the server's hot path.
struct WireResponseView {
  uint64_t tag = 0;
  uint64_t first_query_id = 0;
  uint32_t path_stride = 0;
  uint32_t num_queries = 0;
  std::span<const NodeId> paths;  // num_queries rows of path_stride nodes
};

// Serializers append one complete frame to `out` (which may already hold
// earlier frames — batching writes per send() is the normal pattern).
void AppendRequestFrame(std::vector<uint8_t>& out, const WireRequest& request);
void AppendResponseFrame(std::vector<uint8_t>& out, const WireResponseView& response);
void AppendResponseFrame(std::vector<uint8_t>& out, const WireResponse& response);
void AppendErrorFrame(std::vector<uint8_t>& out, const WireError& error);
void AppendStatsRequestFrame(std::vector<uint8_t>& out, const WireStatsRequest& request);
void AppendStatsResponseFrame(std::vector<uint8_t>& out, const WireStatsResponse& response);

// ---- placed response frames (the scatter-arena serving path) ----
//
// A *placed* frame is a response frame built before its walk runs: the
// header is complete except first_query_id (unknown until the service
// assigns ids at submit), and the path payload region is handed to the
// scheduler as the request's arena rows — workers write wire bytes
// directly, eliminating the arena -> frame copy on the response path.
//
// The buffer carries kPlacedFramePad leading pad bytes so the payload
// lands sizeof(NodeId)-aligned: frame offset of the path nodes is 33
// (8 header + 1 type + 8 tag + 8 first_query_id + 4 stride + 4 count),
// so 3 pad bytes put them at buffer offset 36. Send from
// PlacedFrameBytes(), which skips the pad.
//
// Little-endian hosts only: workers store native u32s into the payload,
// which is only the wire's byte order on LE. BE callers must keep to
// AppendResponseFrame (walk_server.cc gates on std::endian).
inline constexpr size_t kPlacedFramePad = 3;

// Appends pad + skeleton to `out` (which must be empty) and returns the
// payload region: num_queries * path_stride NodeIds, 4-aligned, prefilled
// with kInvalidNode. first_query_id is zero until patched.
NodeId* BuildPlacedResponseFrame(std::vector<uint8_t>& out, uint64_t tag, uint32_t path_stride,
                                 uint32_t num_queries);

// Stamps the service-global first query id into a built placed frame.
void PatchPlacedResponseQueryId(std::vector<uint8_t>& frame, uint64_t first_query_id);

// The sendable region of a placed frame buffer (pad stripped).
inline std::span<const uint8_t> PlacedFrameBytes(const std::vector<uint8_t>& frame) {
  return {frame.data() + kPlacedFramePad, frame.size() - kPlacedFramePad};
}

enum class DecodeStatus {
  kFrame,      // one frame decoded
  kNeedMore,   // prefix of a valid frame; feed more bytes
  kMalformed,  // unrecoverable: bad magic/type/length — close the stream
};

struct WireFrame {
  FrameType type = FrameType::kRequest;
  WireRequest request;    // valid when type == kRequest
  WireResponse response;  // valid when type == kResponse
  WireError error;        // valid when type == kError
  WireStatsRequest stats_request;    // valid when type == kStatsRequest
  WireStatsResponse stats_response;  // valid when type == kStatsResponse
};

// Tries to decode exactly one frame from [data, data + size). On kFrame,
// fills `out` and sets `consumed` to the frame's full byte length; the other
// statuses leave both untouched.
DecodeStatus DecodeFrame(const uint8_t* data, size_t size, size_t max_payload, WireFrame& out,
                         size_t& consumed);

// Incremental stream decoder: append raw socket bytes, pull frames until
// kNeedMore. One instance per connection direction.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  void Append(const uint8_t* data, size_t size);

  // kFrame fills `out`; kNeedMore means append more bytes; kMalformed means
  // the stream is desynced for good (close the connection).
  DecodeStatus Next(WireFrame& out);

  size_t buffered_bytes() const { return buffer_.size() - offset_; }

 private:
  size_t max_payload_;
  std::vector<uint8_t> buffer_;
  size_t offset_ = 0;  // consumed prefix, compacted lazily
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_NET_WIRE_H_
