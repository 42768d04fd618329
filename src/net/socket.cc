#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace itspq {
namespace net {
namespace {

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Reads exactly `n` bytes. Outcomes mirror FrameRead: kFrame = got
/// them all; kCleanClose = EOF before the FIRST byte (only meaningful
/// when `n` starts a frame); kIdleTimeout = receive timeout before the
/// first byte; kError = EOF or timeout after a partial read, or a recv
/// failure — `error` is filled with `what` for context.
FrameRead RecvExact(int fd, char* out, size_t n, const char* what,
                    Status* error) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return FrameRead::kCleanClose;
      *error = InvalidArgumentError(std::string("connection closed mid-") +
                                    what + " after " + std::to_string(got) +
                                    " bytes");
      return FrameRead::kError;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (got == 0) return FrameRead::kIdleTimeout;
      *error = DeadlineExceededError(
          std::string("receive timeout mid-") + what +
          " (slow-loris guard): peer stalled after " + std::to_string(got) +
          " bytes");
      return FrameRead::kError;
    }
    *error = InternalError(ErrnoText("recv"));
    return FrameRead::kError;
  }
  return FrameRead::kFrame;
}

}  // namespace

void ScopedFd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

FrameRead ReadFrame(int fd, size_t max_frame_bytes, std::string* payload,
                    Status* error) {
  uint32_t len = 0;
  char prefix[sizeof len];
  const FrameRead head =
      RecvExact(fd, prefix, sizeof prefix, "length prefix", error);
  if (head != FrameRead::kFrame) return head;
  std::memcpy(&len, prefix, sizeof len);
  if (len == 0) {
    *error = InvalidArgumentError("frame with zero-length payload");
    return FrameRead::kError;
  }
  if (len > max_frame_bytes) {
    *error = InvalidArgumentError(
        "frame length prefix " + std::to_string(len) + " exceeds limit " +
        std::to_string(max_frame_bytes));
    return FrameRead::kError;
  }
  payload->resize(len);
  // A frame whose prefix arrived must finish promptly: EOF, timeout,
  // and recv failure here are all kError — never another clean close.
  const FrameRead body = RecvExact(fd, payload->data(), len, "frame", error);
  if (body == FrameRead::kCleanClose) {
    *error = InvalidArgumentError("connection closed between prefix and body");
    return FrameRead::kError;
  }
  if (body == FrameRead::kIdleTimeout) {
    *error = DeadlineExceededError(
        "receive timeout between prefix and body (slow-loris guard)");
    return FrameRead::kError;
  }
  return body;
}

Status WriteFrame(int fd, std::string_view frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-write surfaces as EPIPE,
    // not a process-killing SIGPIPE.
    const ssize_t r = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (r >= 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    return InternalError(ErrnoText("send"));
  }
  return Status::Ok();
}

Status SetRecvTimeout(int fd, double seconds) {
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    return InternalError(ErrnoText("setsockopt(SO_RCVTIMEO)"));
  }
  return Status::Ok();
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0) {
    return InternalError(ErrnoText("setsockopt(TCP_NODELAY)"));
  }
  return Status::Ok();
}

StatusOr<ScopedFd> ConnectLoopback(uint16_t port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return InternalError(ErrnoText("socket"));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    return InternalError(ErrnoText("connect"));
  }
  (void)SetNoDelay(fd.get());
  return fd;
}

StatusOr<std::pair<ScopedFd, uint16_t>> ListenLoopback(uint16_t port,
                                                       int backlog) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return InternalError(ErrnoText("socket"));
  int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    return InternalError(ErrnoText("bind"));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return InternalError(ErrnoText("listen"));
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return InternalError(ErrnoText("getsockname"));
  }
  return std::make_pair(std::move(fd), ntohs(addr.sin_port));
}

}  // namespace net
}  // namespace itspq
