#include "dppr/net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "dppr/common/macros.h"
#include "dppr/common/timer.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"

namespace dppr {
namespace {

/// Process-wide TCP wire accounting. bytes_sent counts payload + frame
/// header (actual socket traffic, unlike CommStats which stays
/// payload-only and backend-invariant); partial_write_retries counts
/// sendmsg calls beyond the first per frame — nonzero means the kernel
/// buffer filled and frames are backpressured.
struct TcpMetrics {
  obs::Counter* bytes_sent;
  obs::Counter* frames_sent;
  obs::Counter* bytes_received;
  obs::Counter* frames_received;
  obs::Counter* connects;
  obs::Counter* partial_write_retries;
  obs::Histogram* frame_flush_us;

  static const TcpMetrics& Get() {
    static const TcpMetrics metrics = [] {
      auto& r = obs::MetricsRegistry::Global();
      return TcpMetrics{r.GetCounter("net.tcp.bytes_sent"),
                        r.GetCounter("net.tcp.frames_sent"),
                        r.GetCounter("net.tcp.bytes_received"),
                        r.GetCounter("net.tcp.frames_received"),
                        r.GetCounter("net.tcp.connects"),
                        r.GetCounter("net.tcp.partial_write_retries"),
                        r.GetHistogram("net.tcp.frame_flush_us")};
    }();
    return metrics;
  }
};

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  DPPR_CHECK_GE(flags, 0);
  DPPR_CHECK_GE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
}

void SetNoDelay(int fd) {
  // Frames are request/response-shaped; Nagle only adds latency here.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// Shared outbound stream to one endpoint, lazily connected. The mutex
/// serializes whole frames onto the stream so concurrent rounds' frames
/// never interleave mid-frame.
struct TcpTransport::Connection {
  int fd = -1;  // -1 until the first send to this endpoint connects
  std::mutex mu;
};

struct TcpTransport::Endpoint {
  size_t index = 0;
  int listen_fd = -1;
  uint16_t listen_port = 0;
  /// Self-pipe; the destructor writes a byte to wake the poll loop for exit.
  int stop_fds[2] = {-1, -1};
  FrameInbox inbox;
  std::thread rx;

  /// One accepted inbound stream and the unparsed prefix of its bytes.
  struct Inbound {
    int fd = -1;
    std::vector<uint8_t> buf;
    bool closed = false;
  };
  std::vector<Inbound> inbound;  // touched only by the rx thread

  Endpoint(size_t idx, size_t num_machines) : index(idx), inbox(num_machines) {}
};

TcpTransport::TcpTransport(size_t num_machines) : Transport(num_machines) {
  connections_.reserve(num_machines + 1);
  for (size_t i = 0; i <= num_machines; ++i) {
    connections_.push_back(std::make_unique<Connection>());
  }
  endpoints_.reserve(num_machines + 1);
  for (size_t i = 0; i <= num_machines; ++i) {
    auto ep = std::make_unique<Endpoint>(i, num_machines);

    // Nonblocking listener: the rx loop accepts in a drain-until-EAGAIN loop
    // after poll, which would wedge forever on a blocking accept.
    ep->listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    DPPR_CHECK_GE(ep->listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral: the kernel picks a free port per machine
    DPPR_CHECK_EQ(::bind(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)), 0);
    DPPR_CHECK_EQ(::listen(ep->listen_fd, 128), 0);
    socklen_t len = sizeof(addr);
    DPPR_CHECK_EQ(::getsockname(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                                &len), 0);
    ep->listen_port = ntohs(addr.sin_port);

    DPPR_CHECK_EQ(::pipe2(ep->stop_fds, O_CLOEXEC), 0);
    ep->rx = std::thread([this, raw = ep.get()] { RxLoop(*raw); });
    endpoints_.push_back(std::move(ep));
  }
}

TcpTransport::~TcpTransport() {
  // Close outbound streams first: each receive loop sees a clean EOF between
  // frames (destruction only happens with no round in flight, so the kernel
  // delivers any already-sent bytes before the EOF).
  for (auto& conn : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  for (auto& ep : endpoints_) {
    char stop = 1;
    // The pipe holds the byte even if the rx thread is mid-parse.
    ssize_t n = ::write(ep->stop_fds[1], &stop, 1);
    DPPR_CHECK_EQ(n, 1);
  }
  for (auto& ep : endpoints_) ep->rx.join();
  for (auto& ep : endpoints_) {
    for (auto& in : ep->inbound) {
      if (!in.closed) ::close(in.fd);
    }
    ::close(ep->listen_fd);
    ::close(ep->stop_fds[0]);
    ::close(ep->stop_fds[1]);
  }
}

uint16_t TcpTransport::port(size_t endpoint) const {
  DPPR_CHECK_LT(endpoint, endpoints_.size());
  return endpoints_[endpoint]->listen_port;
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void TcpTransport::RxLoop(Endpoint& ep) {
  std::vector<pollfd> fds;
  for (;;) {
    fds.clear();
    fds.push_back({ep.stop_fds[0], POLLIN, 0});
    fds.push_back({ep.listen_fd, POLLIN, 0});
    // fds[2 + i] <-> inbound[i]; entries marked closed below never survive
    // to this rebuild (erase_if prunes them at the end of each iteration).
    const size_t tracked = ep.inbound.size();
    for (const auto& in : ep.inbound) {
      fds.push_back({in.fd, POLLIN, 0});
    }

    int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0 && errno == EINTR) continue;
    DPPR_CHECK_GT(rc, 0);

    if (fds[0].revents != 0) return;  // stop signal

    // A listener error (POLLERR/POLLNVAL) would otherwise skip the accept
    // branch and re-poll instantly forever: a silent 100% CPU spin while
    // gatherers wait. Die instead, per this subsystem's contract.
    DPPR_CHECK((fds[1].revents & ~POLLIN) == 0 && "listener socket error");

    if (fds[1].revents & POLLIN) {
      for (;;) {
        int fd = ::accept4(ep.listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR || errno == ECONNABORTED) continue;
          DPPR_CHECK(false && "accept failed");
        }
        SetNoDelay(fd);
        ep.inbound.push_back(Endpoint::Inbound{fd, {}, false});
      }
    }

    for (size_t i = 0; i < tracked; ++i) {
      if (fds[2 + i].revents == 0) continue;
      if (!DrainInbound(ep, i)) {
        ::close(ep.inbound[i].fd);
        ep.inbound[i].closed = true;
      }
    }
    // Prune cleanly-closed streams now that this iteration's fd indices are
    // done: under connect/disconnect churn the list (and the pollfd vector
    // rebuilt from it) must track live connections, not every connection
    // ever accepted.
    std::erase_if(ep.inbound,
                  [](const Endpoint::Inbound& in) { return in.closed; });
  }
}

bool TcpTransport::DrainInbound(Endpoint& ep, size_t inbound_index) {
  Endpoint::Inbound& in = ep.inbound[inbound_index];
  constexpr size_t kReadChunk = 64 << 10;
  for (;;) {
    // Read straight into the parse buffer's tail — no intermediate chunk
    // copy on the receive loop's critical path.
    const size_t old_size = in.buf.size();
    in.buf.resize(old_size + kReadChunk);
    ssize_t n = ::read(in.fd, in.buf.data() + old_size, kReadChunk);
    if (n <= 0) in.buf.resize(old_size);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      // A reset mid-stream is indistinguishable from truncation: refuse to
      // leave a gatherer waiting forever on bytes that will never come.
      DPPR_CHECK(false && "inbound stream error");
    }
    if (n == 0) {
      // EOF. Between frames it is a clean close (the peer's transport shut
      // down); inside a frame the stream was truncated — die, don't hang.
      DPPR_CHECK(in.buf.empty() && "peer disconnected mid-frame");
      return false;
    }
    in.buf.resize(old_size + static_cast<size_t>(n));
    ParseFrames(ep, inbound_index);
  }
}

void TcpTransport::ParseFrames(Endpoint& ep, size_t inbound_index) {
  Endpoint::Inbound& in = ep.inbound[inbound_index];
  size_t start = 0;
  for (;;) {
    const size_t avail = in.buf.size() - start;
    if (avail < kFrameHeaderBytes) break;
    FrameHeader header =
        DecodeFrameHeader({in.buf.data() + start, kFrameHeaderBytes});
    // payload_bytes is bounded by kMaxFramePayloadBytes (checked in decode),
    // so this sum cannot wrap.
    if (avail < kFrameHeaderBytes + header.payload_bytes) break;
    const uint8_t* payload_begin = in.buf.data() + start + kFrameHeaderBytes;
    std::vector<uint8_t> payload(
        payload_begin, payload_begin + static_cast<size_t>(header.payload_bytes));
    DPPR_CHECK_EQ(FrameChecksum(payload), header.checksum);
    Deliver(ep, header, std::move(payload));
    start += kFrameHeaderBytes + static_cast<size_t>(header.payload_bytes);
  }
  if (start > 0) in.buf.erase(in.buf.begin(), in.buf.begin() + start);
}

void TcpTransport::Deliver(Endpoint& ep, const FrameHeader& header,
                           std::vector<uint8_t> payload) {
  DPPR_CHECK_LT(header.src, num_machines());
  // Legitimate senders allocate the round id before sending, so an id at or
  // past its kind's watermark is hostile: it would squat on a future round's
  // slot (making the real machine's send die as a "duplicate") or grow the
  // inbox without bound under a stream of bogus ids.
  DPPR_CHECK_LT(header.round, allocated_rounds(header.kind));
  if (ep.index == coordinator_endpoint()) {
    DPPR_CHECK(header.kind == FrameKind::kGather);
    DPPR_CHECK_EQ(header.dst, kCoordinatorDst);
  } else {
    DPPR_CHECK(header.kind == FrameKind::kExchange);
    DPPR_CHECK_EQ(header.dst, static_cast<uint32_t>(ep.index));
  }
  const TcpMetrics& metrics = TcpMetrics::Get();
  metrics.frames_received->Increment();
  metrics.bytes_received->Add(kFrameHeaderBytes + payload.size());
  ep.inbox.Push(header.round, header.src, std::move(payload));
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

void TcpTransport::EnsureConnected(Connection& conn, size_t endpoint) {
  if (conn.fd >= 0) return;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  DPPR_CHECK_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoints_[endpoint]->listen_port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  DPPR_CHECK_EQ(rc, 0);
  SetNoDelay(fd);
  SetNonBlocking(fd);
  conn.fd = fd;
  TcpMetrics::Get().connects->Increment();
}

void TcpTransport::SendFrame(size_t endpoint, FrameKind kind, uint64_t round,
                             size_t src, uint32_t dst,
                             std::span<const uint8_t> payload) {
  uint8_t header_bytes[kFrameHeaderBytes];
  EncodeFrameHeader(
      MakeFrameHeader(kind, round, static_cast<uint32_t>(src), dst, payload),
      header_bytes);

  // The span covers lock wait + connect + the full flush, on the sending
  // machine's lane: in a timeline, long net.tcp.send spans under short
  // cluster compute point at socket backpressure.
  obs::TraceSpan span(obs::MachineLane(src), "net.tcp.send");
  span.Arg("round", round);
  span.Arg("bytes", payload.size());

  Connection& conn = *connections_[endpoint];
  std::lock_guard<std::mutex> lock(conn.mu);
  EnsureConnected(conn, endpoint);
  WallTimer flush_timer;
  size_t sendmsg_calls = 0;

  // Header and payload leave as one scatter/gather send; partial writes
  // advance the iovec cursor, EAGAIN parks in poll until the receive loop
  // drains the peer's buffer.
  iovec iov[2];
  iov[0] = {header_bytes, kFrameHeaderBytes};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 1;
  if (!payload.empty()) {
    iov[1] = {const_cast<uint8_t*>(payload.data()), payload.size()};
    msg.msg_iovlen = 2;
  }
  size_t remaining = kFrameHeaderBytes + payload.size();
  while (remaining > 0) {
    ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    ++sendmsg_calls;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{conn.fd, POLLOUT, 0};
        int rc = ::poll(&pfd, 1, -1);
        if (rc < 0 && errno == EINTR) continue;
        DPPR_CHECK_GT(rc, 0);
        continue;
      }
      DPPR_CHECK(false && "send failed: peer vanished mid-round");
    }
    remaining -= static_cast<size_t>(n);
    size_t advance = static_cast<size_t>(n);
    while (advance > 0) {
      if (advance >= msg.msg_iov[0].iov_len) {
        advance -= msg.msg_iov[0].iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      } else {
        msg.msg_iov[0].iov_base =
            static_cast<uint8_t*>(msg.msg_iov[0].iov_base) + advance;
        msg.msg_iov[0].iov_len -= advance;
        advance = 0;
      }
    }
  }
  const TcpMetrics& metrics = TcpMetrics::Get();
  metrics.frames_sent->Increment();
  metrics.bytes_sent->Add(kFrameHeaderBytes + payload.size());
  if (sendmsg_calls > 1) {
    metrics.partial_write_retries->Add(sendmsg_calls - 1);
  }
  metrics.frame_flush_us->Record(
      static_cast<uint64_t>(flush_timer.ElapsedSeconds() * 1e6));
}

void TcpTransport::SendToCoordinator(uint64_t round, size_t src,
                                     std::vector<uint8_t> payload) {
  DPPR_CHECK_LT(src, num_machines());
  SendFrame(coordinator_endpoint(), FrameKind::kGather, round, src,
            kCoordinatorDst, payload);
}

std::vector<std::vector<uint8_t>> TcpTransport::GatherRoundPartial(
    uint64_t round, size_t expected) {
  return endpoints_[coordinator_endpoint()]->inbox.WaitCount(round, expected);
}

void TcpTransport::SendToMachine(uint64_t round, size_t src, size_t dst,
                                 std::vector<uint8_t> payload) {
  DPPR_CHECK_LT(src, num_machines());
  DPPR_CHECK_LT(dst, num_machines());
  SendFrame(dst, FrameKind::kExchange, round, src, static_cast<uint32_t>(dst),
            payload);
}

std::vector<std::vector<uint8_t>> TcpTransport::ReceiveExchange(uint64_t round,
                                                                size_t dst) {
  DPPR_CHECK_LT(dst, num_machines());
  return endpoints_[dst]->inbox.WaitAll(round);
}

}  // namespace dppr
