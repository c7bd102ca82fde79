// Protocol history recorder: the evidence stream the offline consistency
// checker (src/check/) replays. When a TraceSink is attached (DsmConfig::
// trace, ViewSet::SetTrace) the runtime appends one TraceEvent per
// protocol-visible state change — protection transitions, manager service
// and grant decisions, invalidations, barrier epochs, lock hand-offs — each
// stamped with a process-global logical timestamp, so a run's history is a
// single totally-ordered sequence.
//
// The hook is designed to be free when unused: every emission site guards on
// a plain pointer (nullptr = off), and builds can hard-disable recording with
// -DMILLIPAGE_DISABLE_TRACE, which compiles every Emit call out.

#ifndef SRC_COMMON_TRACE_H_
#define SRC_COMMON_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace millipage {

enum class TraceEventKind : uint8_t {
  kProtSet = 1,     // host changed a minipage's protection (arg1 = Protection)
  kFaultStart,      // host entered fault service (arg1 = is_write)
  kFaultEnd,        // host completed fault service (arg1 = is_write)
  kMgrSvcStart,     // manager opened per-minipage service (arg1 = requester,
                    // arg2 = copyset before the transaction)
  kMgrSvcEnd,       // manager closed service (arg2 = copyset after)
  kMgrReadGrant,    // manager routed a read (arg1 = requester, arg2 = copyset)
  kMgrWriteGrant,   // manager granted a write (arg1 = requester, arg2 = the
                    // data-source/retaining host id + 1 — an id, not a mask,
                    // so hosts >= 64 are recorded faithfully)
  kMgrInvalidate,   // manager sent an invalidation (arg1 = target host)
  kBarrierEnter,    // host sent barrier entry
  kBarrierRelease,  // host observed barrier release (arg1 = generation)
  kLockGrant,       // manager granted a lock (arg1 = holder; minipage = lock id)
  kLockRelease,     // manager processed a release (arg1 = holder)
  kAppRead,         // application-level read (addr, arg1 = value)
  kAppWrite,        // application-level write (addr, arg1 = value)
  kEpochBump,       // host adopted a membership epoch (arg1 = epoch,
                    // arg2 = newly-dead host id + 1, one event per death;
                    // arg2 = 0 when the epoch advanced with no new deaths)
  kMinipageLost,    // owning shard degraded a minipage whose last copy is
                    // gone (arg1 = the dead or renouncing last holder; 0
                    // when an adoption survey found no copy)
};

const char* TraceEventKindName(TraceEventKind k);

struct TraceEvent {
  uint64_t lts = 0;       // process-global logical timestamp (total order)
  TraceEventKind kind = TraceEventKind::kProtSet;
  uint16_t host = 0;      // host the event happened on. For manager-side
                          // events (kMgrSvcStart/End, kMgr*Grant,
                          // kMgrInvalidate, kLockGrant/Release) this is the
                          // *serving manager shard* — under a sharded policy
                          // the checker verifies it equals ManagerOf(id).
  uint32_t minipage = 0;  // minipage id (or lock id), ~0u when not applicable
  uint64_t addr = 0;      // packed GlobalAddr when applicable
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
};

// One line per event, stable across runs given identical histories — the
// byte-for-byte reproducibility contract of the deterministic simulator.
std::string FormatTraceEvent(const TraceEvent& e);
std::string FormatTraceHistory(const std::vector<TraceEvent>& history);

class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void Emit(TraceEventKind kind, uint16_t host, uint32_t minipage, uint64_t addr,
            uint64_t arg1 = 0, uint64_t arg2 = 0) {
#ifndef MILLIPAGE_DISABLE_TRACE
    std::lock_guard<std::mutex> lock(mu_);
    TraceEvent e;
    e.lts = events_.size();
    e.kind = kind;
    e.host = host;
    e.minipage = minipage;
    e.addr = addr;
    e.arg1 = arg1;
    e.arg2 = arg2;
    events_.push_back(e);
#else
    (void)kind; (void)host; (void)minipage; (void)addr; (void)arg1; (void)arg2;
#endif
  }

  std::vector<TraceEvent> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

}  // namespace millipage

#endif  // SRC_COMMON_TRACE_H_
