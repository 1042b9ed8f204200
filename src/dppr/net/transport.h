#ifndef DPPR_NET_TRANSPORT_H_
#define DPPR_NET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dppr/net/frame.h"

namespace dppr {

/// The pluggable message layers behind SimCluster.
enum class TransportBackend : uint8_t {
  /// Payloads move as in-process buffer hand-offs (one mutex-guarded mailbox
  /// per destination, no serialization or copy) — the refactored home of the
  /// original direct payload gather.
  kInProcess = 0,
  /// Payloads move as checksummed frames over real localhost TCP sockets,
  /// one listener per simulated machine plus one for the coordinator.
  kTcp = 1,
};

const char* TransportBackendName(TransportBackend backend);

/// Backend selection. `FromEnv` lets one env switch flip every cluster in
/// the process (the CI TCP leg runs the whole test suite under
/// `DPPR_TRANSPORT=tcp`):
///
///   DPPR_TRANSPORT  "tcp" moves every round over real sockets, "inproc"
///                   keeps the call site's in-process default; unset keeps
///                   the default; anything else DPPR_CHECK-fails (a typo
///                   must not silently fall back to memory hand-offs).
struct TransportOptions {
  TransportBackend backend = TransportBackend::kInProcess;

  static TransportOptions FromEnv(
      TransportBackend fallback = TransportBackend::kInProcess);
};

/// Mailbox of one destination endpoint: payloads arriving for (round, src),
/// delivered to a waiter that needs the full set of `num_sources` payloads
/// of a round. Both backends route through this — the in-process transport
/// pushes moved buffers directly, the TCP receive loops push decoded frame
/// payloads — so waiting, round demultiplexing, and duplicate-frame
/// detection behave identically on either.
///
/// Memory is bounded by the in-flight window, not the transport's lifetime:
/// round ids are dense per inbox (each FrameKind has its own id space and an
/// inbox only ever receives one kind), so retired rounds compact into a low
/// watermark plus the out-of-order completions still above it.
class FrameInbox {
 public:
  explicit FrameInbox(size_t num_sources) : num_sources_(num_sources) {}

  FrameInbox(const FrameInbox&) = delete;
  FrameInbox& operator=(const FrameInbox&) = delete;

  /// Files `payload` under (round, src). A second frame for the same slot,
  /// or any frame for a round WaitAll already retired, is hostile (each
  /// source sends exactly one payload per round, and nobody will ever wait
  /// on a retired round again — absorbing the replay would orphan a slot
  /// holding payload copies forever) and dies.
  void Push(uint64_t round, size_t src, std::vector<uint8_t> payload);

  /// Blocks until all `num_sources` payloads of `round` arrived, then
  /// returns them indexed by source and retires the round. Many rounds may
  /// be in flight at once (concurrent queries); each waiter sleeps on its
  /// own round's condition variable, so one round completing never wakes
  /// another round's gatherer.
  std::vector<std::vector<uint8_t>> WaitAll(uint64_t round);

  /// Like WaitAll, but the round is complete after `expected` payloads (a
  /// routed round where only a subset of sources send). The returned vector
  /// is still indexed by source with num_sources entries — absent sources
  /// are empty. The waiter is what knows how many senders a round has, so a
  /// frame count above `expected` (a non-participant sending anyway) is
  /// hostile and dies in Push once the waiter declared the round's size.
  std::vector<std::vector<uint8_t>> WaitCount(uint64_t round, size_t expected);

 private:
  struct Slot {
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<uint8_t> present;
    size_t arrived = 0;
    /// How many payloads complete this round; 0 until the waiter arrives
    /// and declares it (Push cannot know a routed round's participant
    /// count on its own).
    size_t expected = 0;
    /// Per-round: only this round's waiter ever sleeps here.
    std::condition_variable arrived_cv;
  };

  /// Finds or creates the slot of `round`; call with mu_ held.
  Slot& SlotFor(uint64_t round);

  size_t num_sources_;
  std::mutex mu_;
  /// Slots are heap-pinned so a waiter's reference (and its cv) survives
  /// map rehashes while other rounds come and go.
  std::unordered_map<uint64_t, std::unique_ptr<Slot>> rounds_;
  /// Every round below this has been retired; with dense per-inbox ids the
  /// floor chases the slowest in-flight round.
  uint64_t retired_floor_ = 0;
  /// Out-of-order retirements still above the floor (bounded by the number
  /// of concurrent rounds); drained into the floor as the gaps close.
  std::unordered_set<uint64_t> retired_above_floor_;
};

/// Message layer of a simulated cluster: how the bytes of a round actually
/// move between the machines and the coordinator. SimCluster owns one
/// Transport and routes every superstep and query round through it; which
/// backend is live never changes payload bytes, CommStats, or results — only
/// where the bytes physically travel.
///
/// Two primitives, mirroring the two traffic patterns of the paper:
///   - gather: every machine sends one payload per round to the coordinator
///     (SendToCoordinator / GatherRound) — offline supersteps and query
///     fragment collection;
///   - exchange: machine → machine p2p payloads (SendToMachine /
///     ReceiveExchange) — the home for Lin-style shuffle rounds where a
///     vector is computed where the subgraph lives and shipped to its owner.
///
/// Threading contract: sends are safe from any thread (SimCluster's machine
/// tasks run on the shared ThreadPool); GatherRound/ReceiveExchange are safe
/// from many threads as long as each round has exactly one waiter. Round ids
/// come from AllocateRound, so concurrent rounds on one transport never mix
/// frames.
class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual TransportBackend backend() const = 0;

  size_t num_machines() const { return num_machines_; }

  /// Next round id of `kind`; tag every frame of one gather/exchange with
  /// the same id. Each kind has its own dense id space — an inbox only ever
  /// receives one kind, which is what lets it compact retired rounds into a
  /// low watermark instead of remembering every id forever.
  ///
  /// Visibility note for receive paths that check allocated_rounds: the C++
  /// memory model alone does not order this fetch_add before a receiver's
  /// load — the threads are only linked by the payload bytes. What makes
  /// the watermark check sound in TcpTransport is the send/recv syscall
  /// pair between allocation and delivery (a kernel-side barrier); a future
  /// backend without a syscall in that path must add its own edge from
  /// sender to receiver before trusting the watermark.
  uint64_t AllocateRound(FrameKind kind) {
    return round_counter(kind).fetch_add(1, std::memory_order_acq_rel);
  }

  /// Ships machine `src`'s end-of-round payload to the coordinator.
  virtual void SendToCoordinator(uint64_t round, size_t src,
                                 std::vector<uint8_t> payload) = 0;

  /// Coordinator side: blocks until every machine's payload for `round`
  /// arrived; returns them indexed by machine.
  std::vector<std::vector<uint8_t>> GatherRound(uint64_t round) {
    return GatherRoundPartial(round, num_machines());
  }

  /// Blocks until `expected` payloads for `round` arrived (routed rounds
  /// have only a subset of machines send) and returns them indexed by
  /// machine — non-senders' entries are empty.
  virtual std::vector<std::vector<uint8_t>> GatherRoundPartial(
      uint64_t round, size_t expected) = 0;

  /// Ships one p2p payload from machine `src` to machine `dst`.
  virtual void SendToMachine(uint64_t round, size_t src, size_t dst,
                             std::vector<uint8_t> payload) = 0;

  /// Machine `dst`'s side of an exchange round: blocks until one payload
  /// from every machine (including `dst` itself) arrived; returns them
  /// indexed by source.
  virtual std::vector<std::vector<uint8_t>> ReceiveExchange(uint64_t round,
                                                            size_t dst) = 0;

 protected:
  explicit Transport(size_t num_machines);

  /// Rounds of `kind` handed out so far. Every legitimate frame's round id
  /// was allocated before its send, so a receive path may treat an id at or
  /// past this watermark as hostile (it could otherwise squat on a future
  /// round's slot or grow the inbox without bound).
  uint64_t allocated_rounds(FrameKind kind) const {
    return round_counter(kind).load(std::memory_order_acquire);
  }

 private:
  std::atomic<uint64_t>& round_counter(FrameKind kind) {
    return kind == FrameKind::kGather ? next_gather_round_
                                      : next_exchange_round_;
  }
  const std::atomic<uint64_t>& round_counter(FrameKind kind) const {
    return kind == FrameKind::kGather ? next_gather_round_
                                      : next_exchange_round_;
  }

  size_t num_machines_;
  std::atomic<uint64_t> next_gather_round_{0};
  std::atomic<uint64_t> next_exchange_round_{0};
};

/// Factory for TransportOptions::backend.
std::shared_ptr<Transport> MakeTransport(
    size_t num_machines,
    const TransportOptions& options = TransportOptions::FromEnv());

}  // namespace dppr

#endif  // DPPR_NET_TRANSPORT_H_
