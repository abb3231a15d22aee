// Tiny shared socket helpers for the net layer: the client's blocking send
// loop, the server's gathered nonblocking send, and the sendmsg() test seam
// both go through. Header-only on purpose: wire.h stays a pure framing
// module with no socket dependency.
#ifndef FLEXIWALKER_SRC_NET_SOCKET_UTIL_H_
#define FLEXIWALKER_SRC_NET_SOCKET_UTIL_H_

#include <sys/socket.h>
#include <sys/uio.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>

namespace flexi {

// Test seam for fault injection (net_test.cc): every sendmsg() in this
// module goes through this pointer, so a test can interpose EINTR storms or
// forced short writes without a real slow peer. Production never swaps it;
// the atomic makes the swap itself race-free against server threads mid-
// flush. Restore to nullptr (= ::sendmsg) when done.
using SendMsgFn = ssize_t (*)(int fd, const msghdr* msg, int flags);
inline std::atomic<SendMsgFn>& SendMsgOverrideForTesting() {
  static std::atomic<SendMsgFn> fn{nullptr};
  return fn;
}

inline ssize_t SendMsgImpl(int fd, const msghdr* msg, int flags) {
  if (SendMsgFn fn = SendMsgOverrideForTesting().load(std::memory_order_acquire)) {
    return fn(fd, msg, flags);
  }
  return ::sendmsg(fd, msg, flags);
}

// Full-buffer send loop; MSG_NOSIGNAL so a dead peer surfaces as an error
// return instead of SIGPIPE. Blocking sockets only.
inline bool SendAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    msghdr msg{};
    iovec iov{const_cast<uint8_t*>(data), size};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    ssize_t sent = SendMsgImpl(fd, &msg, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    data += sent;
    size -= static_cast<size_t>(sent);
  }
  return true;
}

// Gathered-send outcome. kAgain is only reachable on nonblocking sockets:
// the kernel buffer filled mid-drain, and `iov`/`count` have been advanced
// to exactly the unsent suffix — resume the same call when the fd turns
// writable (the event loop's EPOLLOUT path).
enum class SendResult {
  kDone,    // every byte of every entry left the socket
  kAgain,   // EAGAIN/EWOULDBLOCK; iov/count describe the unsent remainder
  kClosed,  // dead peer (EPIPE/ECONNRESET/...) — drop the connection
};

// Gathered send loop over an iovec array — the cork-flush path of the
// scatter-arena server, where one coalesced batch's responses live in
// per-request frame buffers and go out as one sendmsg() instead of being
// copied into a contiguous buffer first.
//
// Mutates `iov` and `count` in place to account progress: a partial
// sendmsg return — including a short write landing mid-entry, which a
// nonblocking socket produces routinely when the peer reads slowly —
// advances fully-sent entries off the front and bumps the split entry's
// base/len, so the array is always exactly the unsent suffix no matter how
// the drain is interrupted (EINTR, EAGAIN, or the kMaxIov chunking).
// net_test.cc pins the short-write accounting over a socketpair with a
// tiny send buffer and under injected EINTR.
inline SendResult SendVec(int fd, struct iovec*& iov, size_t& count) {
  constexpr size_t kMaxIov = 1024;  // <= IOV_MAX on every supported kernel
  // Skip empty entries so msg_iovlen never starts at zero (a zero-entry
  // sendmsg would return 0 and read as a dead peer).
  while (count > 0 && iov->iov_len == 0) {
    ++iov;
    --count;
  }
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count < kMaxIov ? count : kMaxIov;
    ssize_t sent = SendMsgImpl(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return SendResult::kAgain;
      }
      return SendResult::kClosed;
    }
    if (sent == 0) {
      return SendResult::kClosed;
    }
    size_t left = static_cast<size_t>(sent);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0 && left > 0) {
      // Short write split this entry: advance its base so a resumed call
      // (or the next loop pass) picks up at the first unsent byte.
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return SendResult::kDone;
}

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_NET_SOCKET_UTIL_H_
