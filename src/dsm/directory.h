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
#include <utility>
#include <vector>

#include "src/common/host_set.h"
#include "src/common/logging.h"
#include "src/dsm/config.h"
#include "src/multiview/minipage.h"
#include "src/net/message.h"

namespace millipage {

// What an adoption survey asks about. A survey's wire messages carry it in
// the `seq` field, which no thread waits on.
enum class SurveySubject : uint32_t { kMinipage, kLock, kBarrier };

// The subject survey message `h` names. The field comes off the wire, so a
// value no sender produces is fatal rather than misread as some other id.
inline SurveySubject SurveySubjectOf(const MsgHeader& h) {
  MP_CHECK(h.seq <= static_cast<uint32_t>(SurveySubject::kBarrier))
      << "survey message with unknown subject " << h.seq;
  return static_cast<SurveySubject>(h.seq);
}

// Adoption survey (see DsmNode::StartSurvey): the shard that adopts an id
// from a dead shard asks every live host what it holds of the id before
// serving it. Requests for the id queue meanwhile.
struct Survey {
  bool active = false;  // answers outstanding
  bool done = false;    // latched at start: an adopted id is surveyed once
  HostSet pending;      // hosts yet to answer
};

// Queues request `h`, or, when its host already has an entry in `waiters`,
// replaces that entry with `h`: a membership kick re-sends with a new (slot,
// generation) seq, and an answer built from the stale queued header would be
// discarded by the waiter as an abandoned attempt's reply — wedging it.
// Queued headers were stripped of their epoch tag at receive time, so `from`
// is a pure host id.
template <typename Queue>
void QueueOrRefresh(Queue& waiters, const MsgHeader& h) {
  for (MsgHeader& w : waiters) {
    if (w.from == h.from) {
      w = h;
      return;
    }
  }
  waiters.push_back(h);
}

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
  // Copyset survey of an adopted id; requests queue in `pending` while it is
  // active.
  Survey survey;
  // Every copy of the minipage is gone (its sole copy died with its host, or
  // its last holder renounced it): the id is permanently degraded. Requests
  // are answered with a per-minipage error (kFlagAbort data reply), never
  // served — and never a cluster abort.
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

  // Holder survey of an adopted lock: a grant by the dead shard to a host
  // that is still live must be honored, not doubled. Acquires queue in
  // `waiters` while it is active.
  Survey survey;
};

struct BarrierState {
  uint32_t generation = 0;
  // Entrants of the open round(s), at most one per host (the DSM barrier
  // collapses post-failover re-sends with QueueOrRefresh); release
  // re-evaluates against the live-host set when membership shrinks.
  std::vector<MsgHeader> waiters;
  // Round survey of an adopted barrier: live hosts' completed-round counts
  // seed `generation` after the original barrier shard died.
  Survey survey;
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

  // Publishes the barrier's arrival count; call after changing its waiters.
  void CountBarrierArrivals() {
    gauges_.barrier_arrived.store(static_cast<uint32_t>(barrier_.waiters.size()),
                                  std::memory_order_relaxed);
  }

  // The survey of (subject, id); the barrier's id is kBarrierShardId.
  Survey& SurveyOf(SurveySubject what, uint32_t id) {
    switch (what) {
      case SurveySubject::kMinipage:
        return Entry(id).survey;
      case SurveySubject::kLock:
        return Lock(id).survey;
      case SurveySubject::kBarrier:
        break;
    }
    return barrier_.survey;
  }

  // (subject, id) of every survey still waiting for answers, minipages
  // first, then locks, then the barrier.
  std::vector<std::pair<SurveySubject, uint32_t>> ActiveSurveys() const {
    std::vector<std::pair<SurveySubject, uint32_t>> out;
    for (size_t id = 0; id < entries_.size(); ++id) {
      if (entries_[id].survey.active) {
        out.emplace_back(SurveySubject::kMinipage, static_cast<uint32_t>(id));
      }
    }
    for (size_t id = 0; id < locks_.size(); ++id) {
      if (locks_[id].survey.active) {
        out.emplace_back(SurveySubject::kLock, static_cast<uint32_t>(id));
      }
    }
    if (barrier_.survey.active) {
      out.emplace_back(SurveySubject::kBarrier, kBarrierShardId);
    }
    return out;
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
