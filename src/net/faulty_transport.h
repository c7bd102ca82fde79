// FaultyTransport: a Transport decorator that injects every failure the DSM
// protocol must survive — send delays, send errors, dropped messages,
// one-shot peer death, and spurious poll wakeups (EINTR storms). It is the
// bridge between the failpoint registry (src/common/failpoint.h) and the
// messaging layer: chaos tests wrap a node's real transport in one of these
// and script failures either programmatically (the filter API below) or via
// MILLIPAGE_FAILPOINTS.
//
// Failpoint names consulted on every call:
//   net.send.delay  delay(us): sleep before forwarding a send
//   net.send.err    return:    fail the send with UNAVAILABLE, nothing sent
//   net.send.drop   return:    discard the message, report success (lost msg)
//   net.peer.die    return(p): declare peer p dead (one-shot with times=1;
//                              combine with skip=N for "dies at message N")
//   net.poll.eintr  return:    Poll reports a spurious empty wakeup
//
// A dead peer behaves like a crashed process: sends to it fail with
// UNAVAILABLE, everything it sends is discarded on receive, and the
// peer-down handler fires once.

#ifndef SRC_NET_FAULTY_TRANSPORT_H_
#define SRC_NET_FAULTY_TRANSPORT_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/host_set.h"
#include "src/net/transport.h"

namespace millipage {

inline constexpr HostId kAnyHost = 0xffff;

class FaultyTransport : public Transport {
 public:
  // Wildcard for the filter API below: matches every message type.
  static constexpr uint8_t kAnyType = 0;

  // `inner` must outlive this object. The decorator is installed per node:
  // it intercepts that node's sends and receives only.
  explicit FaultyTransport(Transport* inner);

  Status Send(HostId to, MsgHeader h, const void* payload, size_t len) override;
  Result<bool> Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                    uint64_t timeout_us) override;
  uint16_t num_hosts() const override { return inner_->num_hosts(); }

  // Peer-down events from the inner transport (e.g. SEQPACKET EOF) are
  // forwarded, and injected deaths are raised on the same handler.
  void SetPeerDownHandler(PeerDownHandler handler) override;

  // ---- Programmatic fault script (deterministic, no RNG involved) --------

  // Declares `peer` dead: raises peer-down once, fails future sends to it,
  // discards everything already in flight from it.
  void KillPeer(HostId peer);
  bool peer_dead(HostId peer) const;

  // Discards the next `count` outgoing messages matching (to, type).
  // kAnyHost / kAnyType are wildcards.
  void DropSends(HostId to, MsgType type, uint32_t count);
  // Discards the next `count` inbound messages matching (from, type). A
  // dropped data message's payload is consumed into scratch so the stream
  // stays framed — the loss is invisible to the transport underneath.
  void DropReceives(HostId from, MsgType type, uint32_t count);

  // Delays every subsequent matching send by `us` microseconds (us = 0
  // clears the rule). `count` > 0 limits the rule to the next `count`
  // matching sends, after which it expires; 0 means until cleared.
  void DelaySends(HostId to, MsgType type, uint64_t us, uint32_t count = 0);

  // Delivers the next `count` inbound messages matching (from, type) twice:
  // once normally, then again on a later Poll — the shape of a retransmit
  // whose original was not lost. Header-only messages only (a duplicated
  // data message would need its payload stashed; the protocol's coherence
  // control traffic is all header-only).
  void DuplicateReceives(HostId from, MsgType type, uint32_t count);

  uint64_t sends_dropped() const;
  uint64_t receives_dropped() const;
  uint64_t receives_duplicated() const;

 private:
  struct Filter {
    HostId host = kAnyHost;   // destination (sends) / origin (receives)
    uint8_t type = kAnyType;  // MsgType, kAnyType = all
    uint32_t remaining = 0;   // messages left to affect
    uint64_t delay_us = 0;    // DelaySends only
  };

  static bool Matches(const Filter& f, HostId host, uint8_t type) {
    return (f.host == kAnyHost || f.host == host) &&
           (f.type == kAnyType || f.type == type);
  }

  // Consumes one drop credit for an inbound message; true = discard it.
  bool ConsumeReceiveDrop(const MsgHeader& h);

  Transport* const inner_;
  mutable std::mutex mu_;
  HostSet dead_;
  std::vector<Filter> send_drops_;
  std::vector<Filter> recv_drops_;
  std::vector<Filter> send_delays_;
  std::vector<Filter> recv_dups_;
  // Stashed copies (raw wire headers, epoch tag intact) awaiting re-delivery.
  std::vector<MsgHeader> dup_queue_;
  uint64_t sends_dropped_ = 0;
  uint64_t receives_dropped_ = 0;
  uint64_t receives_duplicated_ = 0;
};

}  // namespace millipage

#endif  // SRC_NET_FAULTY_TRANSPORT_H_
