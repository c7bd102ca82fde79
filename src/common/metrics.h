// Observability substrate: the metric catalog, relaxed-atomic counters and
// fixed-bucket latency histograms grouped in registries, RAII scoped timers,
// snapshot/merge types, and a JSON emitter. Designed for the protocol hot
// paths (SIGSEGV service, request/reply, transport syscalls, mprotect):
//   * every metric the runtime exports is declared once, in the catalog
//     below; a registry is a fixed array indexed by catalog entry, so an
//     update is one relaxed atomic op — no name lookup, no lock, no
//     allocation, safe from signal handlers;
//   * counters always count (the cost model prices them whatever the
//     switch says); when metrics are disabled histograms drop their samples
//     and scoped timers skip their clock reads entirely.

#ifndef SRC_COMMON_METRICS_H_
#define SRC_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "src/common/time_util.h"

namespace millipage {

// ---- Catalog ---------------------------------------------------------------
//
// C(id, name, help) declares a counter, H(id, name, help) a histogram. The
// name's suffix gives the unit (_ns, _bytes; bare names count events); the
// help string documents the entry. Every registry holds every entry; which
// registry an entry lives in is decided by the code that updates it:
//   * host.*, dsm.*, mgr.* — the DsmNode's own registry;
//   * mv.* — the registry the ViewSet is attached to (the DsmNode's, or the
//     process Global() for a standalone view set);
//   * fault.*, net.* — the process Global() registry.
// clang-format off
#define MILLIPAGE_METRICS(C, H)                                                                \
  C(kReadFaults, "host.read_faults", "read faults taken on this host")                         \
  C(kWriteFaults, "host.write_faults", "write faults taken on this host")                      \
  C(kReadFaultBytes, "host.read_fault_bytes", "minipage bytes fetched by read faults")         \
  C(kWriteFaultBytes, "host.write_fault_bytes", "minipage bytes fetched by write faults")      \
  C(kInvalidationsReceived, "host.invalidations_received", "invalidate requests received")     \
  C(kMessagesSent, "host.messages_sent", "protocol messages sent by this host")                \
  C(kBytesSent, "host.bytes_sent", "header plus payload bytes of those messages")              \
  C(kBarriers, "host.barriers", "barriers completed")                                          \
  C(kLockAcquires, "host.lock_acquires", "locks acquired")                                     \
  C(kPrefetches, "host.prefetches", "read prefetches issued")                                  \
  C(kPrefetchBytes, "host.prefetch_bytes", "minipage bytes fetched by prefetches")             \
  C(kWorkUnits, "host.work_units", "app-reported deterministic compute units")                 \
  C(kCompetingRequests, "host.competing_requests",                                             \
    "requests queued behind an in-service minipage at this host's shard")                      \
  C(kBatchFramesSent, "host.batch_frames_sent", "multi-record coherence frames sent")          \
  C(kBatchRecordsSent, "host.batch_records_sent", "records those frames carried")              \
  C(kCoalescedMsgsSent, "host.coalesced_msgs_sent",                                            \
    "datagrams carrying coalescer-routed coherence traffic, batched or not")                   \
  C(kCoalescedRecords, "host.coalesced_records", "coherence records routed via the coalescer") \
  C(kDupInvalidateReplies, "host.dup_invalidate_replies",                                      \
    "duplicate or stray invalidate replies dropped idempotently")                              \
  C(kFaultRetries, "dsm.fault_retries", "fetches retried after a mid-flight invalidation")     \
  C(kTimeoutRetries, "dsm.timeout_retries", "idempotent requests re-sent after a deadline")    \
  C(kStaleReplies, "dsm.stale_replies", "late replies to abandoned attempts, discarded")       \
  C(kBouncedRequests, "dsm.bounced_requests", "requests returned unserved to the manager")     \
  C(kEpochBumps, "dsm.epoch_bumps", "membership epoch bumps applied")                          \
  C(kShardsAdopted, "dsm.shards_adopted", "dead hosts' directory shards this host adopted")    \
  C(kCopysetRepairs, "dsm.copyset_repairs", "dead hosts dropped from a copyset")               \
  C(kMinipagesLost, "dsm.minipages_lost", "minipages whose only copy died with its host")      \
  C(kRequestsServed, "mgr.requests_served", "requests this shard took into service")           \
  C(kInvalidationRounds, "mgr.invalidation_rounds", "invalidation rounds this shard ran")      \
  C(kFirstTouchMigrations, "mgr.first_touch_migrations",                                      \
    "reads that took a never-shared minipage's sole copy instead of replicating it")           \
  C(kMptLookups, "mgr.mpt_lookups", "MPT translations (host 0 only)")                          \
  C(kRemoteRouted, "mgr.remote_routed",                                                        \
    "translated requests handed to another host's shard (host 0, sharded only)")               \
  C(kProtSets, "mv.prot_sets", "ranged protection calls (syscalls)")                           \
  C(kProtSetPages, "mv.prot_set_pages", "vpages those calls re-protected")                     \
  C(kFaultsDispatched, "fault.dispatched", "faults handed to a registered callback")           \
  C(kNetMsgsSent, "net.msgs_sent", "datagrams sent by the socket transport")                   \
  C(kNetMsgsRecv, "net.msgs_recv", "datagrams received by the socket transport")               \
  C(kNetSyscalls, "net.syscalls", "kernel entries on the transport paths")                     \
  H(kReadFaultNs, "dsm.read_fault_ns", "read fault service, entry to retry")                   \
  H(kWriteFaultNs, "dsm.write_fault_ns", "write fault service, entry to retry")                \
  H(kBarrierNs, "dsm.barrier_ns", "barrier entry to release")                                  \
  H(kLockNs, "dsm.lock_ns", "lock request to grant")                                           \
  H(kRecoveryNs, "dsm.recovery_ns", "host-death recovery, detect to done")                     \
  H(kFaultDecodeNs, "fault.decode_ns", "fault entry to address/access decode")                 \
  H(kFaultServiceNs, "fault.service_ns", "fault entry to fault resolved")                      \
  H(kNetSendNs, "net.send_ns", "socket send of header plus payload")                           \
  H(kNetSendBytes, "net.send_bytes", "bytes per datagram sent")                                \
  H(kNetRecvBytes, "net.recv_bytes", "bytes per datagram received")
// clang-format on

#define MP_METRIC_ID(id, name, help) id,
#define MP_METRIC_NAME(id, name, help) name,
#define MP_METRIC_ONE(id, name, help) +1
#define MP_METRIC_NONE(id, name, help)

enum class Metric : uint16_t { MILLIPAGE_METRICS(MP_METRIC_ID, MP_METRIC_NONE) };
enum class Hist : uint16_t { MILLIPAGE_METRICS(MP_METRIC_NONE, MP_METRIC_ID) };

inline constexpr size_t kNumCounters = 0 MILLIPAGE_METRICS(MP_METRIC_ONE, MP_METRIC_NONE);
inline constexpr size_t kNumHistograms = 0 MILLIPAGE_METRICS(MP_METRIC_NONE, MP_METRIC_ONE);

// Exported names, indexed by Metric / Hist.
inline constexpr const char* kCounterNames[kNumCounters] = {
    MILLIPAGE_METRICS(MP_METRIC_NAME, MP_METRIC_NONE)};
inline constexpr const char* kHistogramNames[kNumHistograms] = {
    MILLIPAGE_METRICS(MP_METRIC_NONE, MP_METRIC_NAME)};

#undef MP_METRIC_ID
#undef MP_METRIC_NAME
#undef MP_METRIC_ONE
#undef MP_METRIC_NONE

// ---- Switch ----------------------------------------------------------------

namespace metrics_internal {
extern std::atomic<bool> g_enabled;
}  // namespace metrics_internal

// Process-wide histogram/timer switch, default on (MILLIPAGE_METRICS=0 in
// the environment starts the process disabled). Counters ignore it.
inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

// ---- Primitives ------------------------------------------------------------

// Relaxed atomic event counter. Always counts.
class Counter {
 public:
  void Inc(uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Plain-data readout of a registry's counters, indexed by catalog entry: the
// unit of epoch deltas, cluster totals and before/after brackets.
struct CounterValues {
  uint64_t v[kNumCounters] = {};

  uint64_t& operator[](Metric m) { return v[static_cast<size_t>(m)]; }
  uint64_t operator[](Metric m) const { return v[static_cast<size_t>(m)]; }
  CounterValues& operator+=(const CounterValues& o) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      v[i] += o.v[i];
    }
    return *this;
  }
  CounterValues operator-(const CounterValues& o) const {
    CounterValues r = *this;
    for (size_t i = 0; i < kNumCounters; ++i) {
      r.v[i] -= o.v[i];
    }
    return r;
  }
};

// Value-independent snapshot of a histogram (nanoseconds for timers, bytes
// for size distributions). Plain data: merge freely, serialize, compare.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;

  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when empty
  uint64_t max = 0;

  double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  // Approximate quantile (bucket upper bound), q in [0,1].
  uint64_t Quantile(double q) const;
  void Merge(const HistogramSnapshot& o);
};

// Fixed-bucket latency/size histogram: 64 power-of-two buckets (bucket i
// covers (2^(i-1), 2^i]), all state in relaxed atomics so recording is safe
// from any thread and from signal handlers. Record is gated on the metrics
// switch; RecordAlways skips the gate for callers that checked it already
// (and, with it, already paid for the value being recorded — e.g. a clock
// read).
class Histogram {
 public:
  void Record(uint64_t v) {
    if (MetricsEnabled()) {
      RecordAlways(v);
    }
  }
  void RecordAlways(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  static int BucketFor(uint64_t v) {
    if (v <= 1) {
      return 0;
    }
    const int b = 64 - __builtin_clzll(v - 1);
    return b >= HistogramSnapshot::kBuckets ? HistogramSnapshot::kBuckets - 1 : b;
  }

  std::atomic<uint64_t> buckets_[HistogramSnapshot::kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ULL};
  std::atomic<uint64_t> max_{0};
};

// RAII latency probe: records the scope's wall time into `h` on destruction.
// When metrics are disabled at construction the timer is inert — no clock
// reads at either end.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(MetricsEnabled() ? h : nullptr), t0_(h_ != nullptr ? MonotonicNowNs() : 0) {}
  ~ScopedTimer() {
    if (h_ != nullptr) {
      h_->RecordAlways(MonotonicNowNs() - t0_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* const h_;
  const uint64_t t0_;
};

// Flat, name-keyed snapshot of a registry (or a merge of several): the unit
// of aggregation — per node, per cluster, per bench run.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  void Merge(const MetricsSnapshot& o);
  // {"counters":{name:value,...},"histograms":{name:{count,sum,min,max,
  //  mean,p50,p95,p99},...}} — sorted by name, no trailing newline.
  std::string DumpJson() const;
};

// Holds every catalog entry: a counter per C() line, a histogram per H()
// line. One registry per DsmNode for per-host attribution, plus a process
// Global() for singletons — the fault handler, the transports and
// standalone view sets.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  void Inc(Metric m, uint64_t d = 1) { counters_[static_cast<size_t>(m)].Inc(d); }
  uint64_t value(Metric m) const { return counters_[static_cast<size_t>(m)].value(); }
  Histogram& histogram(Hist h) { return histograms_[static_cast<size_t>(h)]; }
  const Histogram& histogram(Hist h) const { return histograms_[static_cast<size_t>(h)]; }

  CounterValues Counters() const;
  // Every catalog entry by name, zero-valued ones included.
  MetricsSnapshot Snapshot() const;
  // Zeroes every metric. Test/bench helper.
  void Reset();

 private:
  Counter counters_[kNumCounters];
  Histogram histograms_[kNumHistograms];
};

}  // namespace millipage

#endif  // SRC_COMMON_METRICS_H_
