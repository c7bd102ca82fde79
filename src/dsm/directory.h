// Manager-side directory: per-minipage copyset/ownership, in-service
// serialization with request queueing (the source of the paper's "competing
// requests" statistic), pending-write invalidation rounds, plus the lock and
// barrier tables. One Directory instance is one manager *shard*: centralized
// deployments run a single shard on host 0; sharded deployments
// (ManagerPolicy::kSharded) run one per host, holding exactly the ids that
// hash to it. All state in a shard is touched exclusively by its host's
// server thread, so no locking is needed; the only exception is the three
// diagnostic gauges (see Directory::Gauges), which other threads may read.

#ifndef SRC_DSM_DIRECTORY_H_
#define SRC_DSM_DIRECTORY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/host_set.h"
#include "src/common/logging.h"
#include "src/multiview/minipage.h"
#include "src/net/message.h"

namespace millipage {

// Directory entry for one minipage.
struct DirEntry {
  HostSet copyset;          // hosts holding a copy
  bool writable = false;    // single copyset member holds ReadWrite
  // A request is being serviced (until ACK). Written only through
  // Directory::SetInService, which keeps the in-service gauge in step.
  bool in_service = false;
  HostId in_service_for = 0;      // requester of the in-service transaction
  // The in-service request itself, kept so repair can re-issue the
  // transaction against a surviving replica when its data source dies.
  // Closing the service instead would break the 1:1 pairing between open
  // services and the requester ACKs that retire them (ACKs carry no
  // generation, so a stale ACK would close the wrong transaction).
  MsgHeader in_service_req{};
  std::deque<MsgHeader> pending;  // competing requests, FIFO

  // Outstanding invalidation round for a write request. The outstanding set
  // is a host set (not a count) so copyset repair can retire the
  // invalidations a dead host will never answer.
  bool write_pending = false;
  MsgHeader pending_write{};
  HostId write_remaining = 0;  // host that will supply the data
  HostSet invalidates_pending;

  // Outstanding confirmations for an in-service push-update broadcast.
  uint32_t push_outstanding = 0;

  // The replica asked to supply data for the in-service transaction (read
  // fetch or write forward). The requester joins the copyset at grant time,
  // before its copy exists, so when the source dies mid-flight repair must
  // know whom the transaction was waiting on to retract that provisional
  // copy and close or restart the service.
  bool fetch_pending = false;
  HostId fetch_from = 0;

  // ---- Recovery state ------------------------------------------------------
  // An adopted id whose copyset is being rebuilt: the new owning shard has
  // broadcast kCopysetQuery and is waiting for the hosts in
  // rebuild_pending to answer. Requests queue in `pending` meanwhile.
  bool rebuilding = false;
  HostSet rebuild_pending;
  // The minipage's sole copy died with its host: every copy is gone and the
  // id is permanently degraded. Requests are answered with a per-minipage
  // error (kFlagAbort data reply), never served — and never a cluster abort.
  bool lost = false;

  // Host ids come off the wire, so a corrupt id must fail loudly instead of
  // silently aliasing membership. HostSet fatals on ids ≥ kMaxHosts (the
  // wire format's 10-bit ceiling); node/cluster construction rejects
  // num_hosts outside [1, kMaxHosts].
  bool HasCopy(HostId h) const { return copyset.Contains(h); }
  void AddCopy(HostId h) { copyset.Add(h); }
  void RemoveCopy(HostId h) { copyset.Remove(h); }
  int CopyCount() const { return copyset.Count(); }
  // Any copyset member, preferring one different from `avoid`. `hint`
  // rotates the starting position: when read ACKs are elided the copyset can
  // transiently contain members whose copy is still inbound, and a rotating
  // choice guarantees a re-routed request eventually reaches the (always
  // existing) member with stable data.
  HostId PickReplica(HostId avoid, uint32_t hint = 0) const {
    // An empty copyset has no replica to pick: hint % 0 divides by zero, so
    // fail loudly instead of returning garbage.
    MP_CHECK(!copyset.Empty()) << "PickReplica on an empty copyset (minipage has no holder)";
    HostSet others = copyset;
    others.Remove(avoid);
    const HostSet& pool = others.Empty() ? copyset : others;
    const int n = pool.Count();
    const int skip = static_cast<int>(hint % static_cast<uint32_t>(n));
    return static_cast<HostId>(pool.SelectNth(skip));
  }
};

struct LockEntry {
  bool held = false;
  HostId holder = 0;
  std::deque<MsgHeader> waiters;

  // Adopted-lock rebuild: before first grant after a failover, the new
  // owning shard probes every live host for an existing holder (a grant by
  // the dead shard that is still live must be honored, not double-granted).
  // Acquires queue in `waiters` until the hosts in probe_pending answer.
  // `probed` latches so an adopted lock is probed at most once.
  bool probing = false;
  bool probed = false;
  HostSet probe_pending;

  bool HasWaiter(HostId h) const {
    for (const MsgHeader& w : waiters) {
      // Queued waiters were stripped of their epoch tag at receive time, so
      // `from` is a pure host id — no WireCodec::Host() re-masking (which
      // would alias ids ≥ 64).
      if (w.from == h) {
        return true;
      }
    }
    return false;
  }

  // Collapses a re-sent acquire into its queued predecessor, keeping the
  // freshest header: a membership kick re-sends with a new (slot, generation)
  // seq, and a grant built from the stale queued header would be discarded by
  // the waiter as an abandoned attempt's reply — wedging the lock. Returns
  // false if `h.from` was not queued (the caller pushes the header instead).
  bool RefreshWaiter(const MsgHeader& h) {
    for (MsgHeader& w : waiters) {
      if (w.from == h.from) {
        w = h;
        return true;
      }
    }
    return false;
  }
};

struct BarrierState {
  uint32_t generation = 0;
  // Arrival count, used by the LRC variant's fixed-membership barrier. The
  // DSM barrier keeps it equal to arrived_set's size through
  // Directory::CountBarrierArrivals.
  uint32_t arrived = 0;
  // Arrival set, used by the DSM barrier: duplicate entries (post-failover
  // re-sends) collapse instead of double-counting, and release re-evaluates
  // against the live-host set when membership shrinks.
  HostSet arrived_set;
  std::vector<MsgHeader> waiters;
  // Adopted-barrier generation probe (see DsmNode::StartBarrierProbe): true
  // while live hosts' completed-round counts are being collected to seed
  // `generation` after the original barrier shard died.
  bool probing = false;
  bool probed = false;
  HostSet probe_pending;
};

class Directory {
 public:
  // Off-thread view of the shard for liveness diagnostics: the report runs on
  // application threads and in the transport's peer-down callback, while the
  // server thread may be growing `entries_` (a reallocation frees the vector
  // a walker would be reading). The server thread publishes these counts
  // where the underlying state changes; readers get each number on its own,
  // not a consistent cut, which is all a diagnostic needs.
  struct Gauges {
    std::atomic<size_t> entries{0};
    std::atomic<size_t> in_service{0};
    std::atomic<uint32_t> barrier_arrived{0};
  };

  DirEntry& Entry(MinipageId id) {
    MP_CHECK(id != kInvalidMinipage) << "directory access with invalid minipage id";
    if (id >= entries_.size()) {
      entries_.resize(id + 1);
      gauges_.entries.store(entries_.size(), std::memory_order_relaxed);
    }
    return entries_[id];
  }

  void SetInService(DirEntry& e, bool on) {
    if (e.in_service == on) {
      return;
    }
    e.in_service = on;
    const size_t n = gauges_.in_service.load(std::memory_order_relaxed);
    gauges_.in_service.store(on ? n + 1 : n - 1, std::memory_order_relaxed);
  }

  // Re-derives the barrier's arrival count from its arrival set.
  void CountBarrierArrivals() {
    barrier_.arrived = static_cast<uint32_t>(barrier_.arrived_set.Count());
    gauges_.barrier_arrived.store(barrier_.arrived, std::memory_order_relaxed);
  }

  LockEntry& Lock(uint32_t lock_id) {
    if (lock_id >= locks_.size()) {
      locks_.resize(lock_id + 1);
    }
    return locks_[lock_id];
  }

  BarrierState& barrier() { return barrier_; }
  const BarrierState& barrier() const { return barrier_; }

  size_t num_entries() const { return entries_.size(); }
  // Lock ids with table slots so far (repair iterates [0, num_locks)).
  size_t num_locks() const { return locks_.size(); }

  // Safe to read from any thread.
  const Gauges& gauges() const { return gauges_; }

 private:
  std::vector<DirEntry> entries_;
  std::vector<LockEntry> locks_;
  BarrierState barrier_;
  Gauges gauges_;
};

}  // namespace millipage

#endif  // SRC_DSM_DIRECTORY_H_
