#ifndef DPPR_NET_TCP_TRANSPORT_H_
#define DPPR_NET_TCP_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dppr/net/transport.h"

namespace dppr {

/// Real-socket backend: every simulated machine — plus the coordinator —
/// owns a listening TCP socket on 127.0.0.1 and a receive loop, and every
/// payload crosses the kernel as a checksummed frame exactly as it would
/// between hosts. Payload bytes, CommStats, and results are bit-identical to
/// InProcessTransport (the byte ledgers are computed from payload sizes, not
/// wire overhead); what changes is that the bytes genuinely travel.
///
/// Topology: endpoints 0..n-1 are the machines, endpoint n the coordinator.
/// Senders share one lazily-connected outbound socket per destination
/// endpoint (frames carry their source in the header, so one stream can
/// multiplex every sender); a per-connection mutex serializes whole frames
/// onto the stream. Sends are nonblocking with partial-write handling — the
/// frame header and payload go out as one scatter/gather writev, and EAGAIN
/// parks the sender in poll(POLLOUT) — while each endpoint's receive loop
/// (one thread per endpoint, poll over listener + accepted streams) reparses
/// the byte stream into frames and files them in the endpoint's FrameInbox.
///
/// The receive loops never deadlock a round: they always drain the kernel
/// buffers, so a sender's frames land in the inbox even when no gatherer is
/// waiting yet (sequential SimCluster mode sends all n payloads before the
/// first gather).
///
/// Hostile input dies instead of hanging: wrong magic, unknown kind,
/// oversized/wrapping length, checksum mismatch, a frame from an
/// out-of-range machine, a duplicate (round, src) frame, and a peer that
/// disconnects mid-frame all DPPR_CHECK-fail in the receive loop.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(size_t num_machines);
  ~TcpTransport() override;

  TransportBackend backend() const override { return TransportBackend::kTcp; }

  void SendToCoordinator(uint64_t round, size_t src,
                         std::vector<uint8_t> payload) override;
  std::vector<std::vector<uint8_t>> GatherRoundPartial(
      uint64_t round, size_t expected) override;

  void SendToMachine(uint64_t round, size_t src, size_t dst,
                     std::vector<uint8_t> payload) override;
  std::vector<std::vector<uint8_t>> ReceiveExchange(uint64_t round,
                                                    size_t dst) override;

  /// Endpoint index of the coordinator's listener (machines are 0..n-1).
  size_t coordinator_endpoint() const { return num_machines(); }

  /// Listening port of `endpoint` on 127.0.0.1. Exposed so hostile-frame
  /// tests can connect a raw socket and prove garbage dies cleanly.
  uint16_t port(size_t endpoint) const;

 private:
  struct Endpoint;
  struct Connection;

  void RxLoop(Endpoint& ep);
  /// Drains one inbound stream; returns false when the peer closed cleanly
  /// (between frames). Mid-frame EOF or any malformed frame dies.
  bool DrainInbound(Endpoint& ep, size_t inbound_index);
  void ParseFrames(Endpoint& ep, size_t inbound_index);
  void Deliver(Endpoint& ep, const FrameHeader& header,
               std::vector<uint8_t> payload);

  /// Connects `conn` to `endpoint`'s listener if not yet connected; call
  /// with conn.mu held.
  void EnsureConnected(Connection& conn, size_t endpoint);
  void SendFrame(size_t endpoint, FrameKind kind, uint64_t round, size_t src,
                 uint32_t dst, std::span<const uint8_t> payload);

  std::vector<std::unique_ptr<Endpoint>> endpoints_;  // n machines + coordinator
  /// One shared outbound stream per destination endpoint, fixed at
  /// construction (lazily connected under its own mutex — no global lock on
  /// the send path).
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace dppr

#endif  // DPPR_NET_TCP_TRANSPORT_H_
