// SimNet: a deterministic discrete-event network for protocol simulation.
//
// Unlike InProcTransport (real threads racing on mailboxes), SimNet gives a
// single external scheduler ownership of every message delivery: sends only
// enqueue, stamped with a virtual-clock arrival time drawn from a seeded RNG,
// and nothing is delivered until the driver calls ScheduleNext(), which picks
// the globally earliest arrival (seeded tie-break), advances the virtual
// clock, and stages exactly one message for its destination. The destination
// node then consumes it with DsmNode::PumpOne(). Two runs with the same seed
// and the same driver decisions therefore produce byte-for-byte identical
// delivery orders — the reproducibility contract `ctest -L sim` checks.
//
// Per-(sender, receiver) FIFO is preserved: a message's arrival time is
// clamped to be no earlier than the previous message on the same pair, and
// ScheduleNext only ever considers pair-queue heads. Each host talks to the
// fabric through its own SimEndpoint (a Transport), which is how the fabric
// learns the sender — the base Transport::Send has no "from" parameter.

#ifndef SRC_NET_SIM_TRANSPORT_H_
#define SRC_NET_SIM_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/host_set.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/net/message.h"
#include "src/net/transport.h"

namespace millipage {

struct SimOptions {
  // Uniform per-message latency jitter, in virtual microseconds. The spread
  // is what lets different seeds explore different interleavings.
  uint64_t min_delay_us = 1;
  uint64_t max_delay_us = 100;
};

class Histogram;
class SimEndpoint;

class SimNet {
 public:
  SimNet(uint16_t num_hosts, uint64_t seed, SimOptions options = SimOptions{});
  ~SimNet();

  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  // The per-host Transport to hand to DsmNode::Create.
  Transport* endpoint(HostId h) const;

  uint16_t num_hosts() const { return num_hosts_; }

  // Virtual clock, microseconds. Advances only inside ScheduleNext.
  uint64_t now_us() const;

  // Messages enqueued or staged but not yet consumed by a Poll.
  size_t pending() const;

  // Picks the earliest-arrival queued message (seeded tie-break), advances
  // the virtual clock to its arrival, and stages it for its destination.
  // Returns false when no message is pending; otherwise *dst names the host
  // whose PumpOne() will consume it.
  bool ScheduleNext(HostId* dst);

  // Deterministic targeted loss: the next `count` sends of `type` addressed
  // to `dst` are swallowed at enqueue time.
  void Drop(HostId dst, MsgType type, uint32_t count);

  // Kills host `v` at the current virtual time: every queued or staged
  // message from or to it vanishes (in-flight datagrams die with the host),
  // and all future sends to or from it are silently swallowed. Sends to a
  // dead host still return Ok — a datagram fabric reports no delivery
  // failure — so the failure is only observable as missing replies, exactly
  // the signal the node-side failure detector works from.
  void KillHost(HostId v);
  HostSet dead_set() const;

  // Messages scheduled + dropped so far (diagnostics).
  uint64_t delivered() const;
  uint64_t dropped() const;

 private:
  friend class SimEndpoint;

  struct SimMsg {
    MsgHeader h;
    std::vector<std::byte> payload;
    uint64_t arrival_us = 0;
  };

  struct DropRule {
    HostId dst = 0;
    MsgType type = MsgType::kReadRequest;
    uint32_t remaining = 0;
  };

  // All live state of one (sender, receiver) channel, created lazily on the
  // pair's first send. A 1024-host fabric has ~1M pairs, almost all of them
  // forever idle — preallocating queues and RNGs for each (the original
  // design) costs hundreds of megabytes; the map holds only pairs that have
  // ever carried traffic.
  struct PairState {
    std::deque<SimMsg> q;
    // Latency jitter draws come from a per-pair stream, so a message's
    // arrival time depends only on its position in its own channel — not on
    // how concurrent senders on other pairs interleave their enqueues.
    // Without this, the membership-recovery kick (which wakes several hosts'
    // workers at once) would make delivery schedules race-dependent. The
    // lazy seed formula matches the old eager preallocation, so schedules
    // are byte-identical to the fixed-size fabric.
    Rng rng;
    uint64_t tail_us = 0;  // last arrival (FIFO clamp)

    explicit PairState(uint64_t seed) : rng(seed) {}
  };

  Status SendFrom(HostId from, HostId to, const MsgHeader& h, const void* payload,
                  size_t len);
  Result<bool> PollStaged(HostId me, MsgHeader* h, const PayloadSink& sink);

  size_t PairIndex(HostId from, HostId to) const {
    return static_cast<size_t>(from) * num_hosts_ + to;
  }
  PairState& Pair(size_t pair);
  // Removes `pair` from the heads index, dropping the (arrival) bucket when
  // it empties.
  void UnindexHead(size_t pair, uint64_t arrival);

  const uint16_t num_hosts_;
  const SimOptions options_;
  const uint64_t seed_;
  // Datagram-size distribution (net.send_bytes, global registry): one
  // sample per SendFrom, so a batched frame counts as a single datagram.
  Histogram& send_bytes_ = MetricsRegistry::Global().histogram(Hist::kNetSendBytes);

  mutable std::mutex mu_;
  Rng rng_;  // scheduler-side draws (tie-breaks) — driver thread only
  uint64_t now_us_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  size_t queued_ = 0;  // messages in pair queues (not yet staged)
  HostSet dead_;
  std::unordered_map<size_t, PairState> pairs_;  // keyed by PairIndex
  // Scheduling index: head-of-queue arrival time -> pair ids whose head
  // arrives then. begin() is the globally earliest arrival; the inner set
  // iterates pairs in ascending id order, which is exactly the candidate
  // order the original linear scan produced — so the seeded tie-break sees
  // the same candidate list and schedules stay byte-identical.
  std::map<uint64_t, std::set<size_t>> heads_;
  std::vector<std::deque<SimMsg>> staged_;  // per destination
  std::vector<DropRule> drop_rules_;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints_;
};

}  // namespace millipage

#endif  // SRC_NET_SIM_TRANSPORT_H_
