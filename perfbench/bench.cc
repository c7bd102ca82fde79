// Millipage benchmark (perfbench): runs one workload through the DSM's public API,
// checks every output, and prints one JSON result line.
//
//   perfbench --workload apps-inproc|ops-forked|burst-forked --seed N
//             --seconds S --trace 0|1 [--trace_out FILE] [--tiny]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same work once untraced and once with the benchmark's own spans on, and
// reports the per-layer metrics, the span self times and the tracing
// overhead. README.md beside this file maps every metric to its layer and
// workload.

#include <linux/futex.h>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/app.h"
#include "src/apps/is.h"
#include "src/apps/lu.h"
#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"
#include "src/common/metrics.h"
#include "src/common/time_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/dsm/process_cluster.h"
#include "src/net/transport_factory.h"
#include "src/os/fault_handler.h"

namespace perfbench {

using millipage::DsmCluster;
using millipage::DsmConfig;
using millipage::DsmNode;
using millipage::GlobalAddr;
using millipage::GlobalPtr;
using millipage::HostId;
using millipage::MonotonicNowNs;

constexpr uint16_t kHosts = 4;

// ---------------------------------------------------------------------------
// Spans: kept in fixed arrays (shared with forked children), merged into the
// parent's log after each cluster run and written out once at the end.

enum SpanName : uint16_t {
  kSpanRun,
  kSpanClusterCreate,
  kSpanRunParallel,
  kSpanForkedRun,
  kSpanForkReady,
  kSpanAppSetup,
  kSpanAppWorker,
  kSpanAppValidate,
  kSpanHostSetup,
  kSpanSharedMalloc,
  kSpanHostLoop,
  kSpanRead,
  kSpanWrite,
  kSpanLock,
  kSpanUnlock,
  kSpanBarrier,
  kSpanBurstRead,
  kSpanBurstWrite,
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "bench.run",        "cluster.create",    "cluster.run_parallel", "cluster.forked_run",
    "cluster.fork_ready", "app.setup",       "app.worker",           "app.validate",
    "host.setup",       "dsm.shared_malloc", "host.loop",            "op.read",
    "op.write",         "op.lock",           "op.unlock",            "op.barrier",
    "burst.read_phase", "burst.write_phase",
};

constexpr uint16_t kMainThread = 0xffff;

struct Span {
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;  // index in the same log; -1 = the log's attach point
  uint16_t name;
  uint16_t host;
};

struct SpanLog {
  Span* buf = nullptr;
  uint64_t cap = 0;
  uint64_t n = 0;
  uint64_t dropped = 0;
};

thread_local SpanLog* tl_log = nullptr;
thread_local int32_t tl_open = -1;
thread_local uint16_t tl_host = kMainThread;

void BindTrace(SpanLog* log, uint16_t host) {
  tl_log = log;
  tl_open = -1;
  tl_host = host;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) {
    if (tl_log == nullptr) {
      return;
    }
    if (tl_log->n >= tl_log->cap) {
      ++tl_log->dropped;
      return;
    }
    log_ = tl_log;
    id_ = static_cast<int32_t>(log_->n++);
    log_->buf[id_] = Span{MonotonicNowNs(), 0, tl_open, name, tl_host};
    prev_ = tl_open;
    tl_open = id_;
  }
  // Closes against the log it opened in, which stays valid even if the
  // thread unbinds tracing while the span is open.
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->buf[id_].end_ns = MonotonicNowNs();
      tl_open = prev_;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_ = nullptr;
  int32_t id_ = -1;
  int32_t prev_ = -1;
};

// Anonymous shared mapping; set up before fork so children write results the
// parent reads after reaping them. Pages are only backed once touched.
void* MapShared(size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("mmap");
    std::exit(3);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Keeps every CPU out of idle for the whole run, as booting with idle=poll
// would: one SCHED_IDLE thread per online CPU spins until destruction. On a
// VM, waking a thread whose vCPU has halted costs a trip through the host
// scheduler, and that cost swings with the host's load from other tenants:
// the in-process read fault read 21-28 us in quiet minutes and 50-65 us in
// busy ones. A SCHED_IDLE thread runs only when nothing else is runnable
// and yields at once to any DSM thread that wakes on its CPU.

class IdleSpinners {
 public:
  IdleSpinners() {
    const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    for (long c = 0; c < cpus; ++c) {
      threads_.emplace_back([this, c] { Spin(static_cast<int>(c)); });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  void Spin(int cpu) {
    const sched_param param{};
    if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) != 0) {
      return;  // a spinner at normal priority would compete with the DSM
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);  // best effort
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // declared after stop_, which they read
};

// ---------------------------------------------------------------------------
// Flat metric snapshots: counters plus histogram (count, sum). The
// power-of-two histograms are used only for their exact means.

struct Flat {
  std::map<std::string, uint64_t> c;
  std::map<std::string, std::pair<uint64_t, uint64_t>> h;

  void Add(const Flat& o) {
    for (const auto& [k, v] : o.c) c[k] += v;
    for (const auto& [k, v] : o.h) {
      h[k].first += v.first;
      h[k].second += v.second;
    }
  }
  double C(const std::string& k) const {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  }
  double HMean(const std::string& k) const {
    auto it = h.find(k);
    return it == h.end() || it->second.first == 0
               ? 0.0
               : static_cast<double>(it->second.second) / static_cast<double>(it->second.first);
  }
};

Flat FromSnapshot(const millipage::MetricsSnapshot& s) {
  Flat f;
  for (const auto& [k, v] : s.counters) f.c[k] = v;
  for (const auto& [k, v] : s.histograms) f.h[k] = {v.count, v.sum};
  return f;
}

Flat Minus(const Flat& after, const Flat& before) {
  Flat d = after;
  for (const auto& [k, v] : before.c) d.c[k] -= v;
  for (const auto& [k, v] : before.h) {
    d.h[k].first -= v.first;
    d.h[k].second -= v.second;
  }
  return d;
}

std::string Serialize(const Flat& f) {
  std::string out;
  char line[256];
  for (const auto& [k, v] : f.c) {
    std::snprintf(line, sizeof(line), "c %s %llu\n", k.c_str(),
                  static_cast<unsigned long long>(v));
    out += line;
  }
  for (const auto& [k, v] : f.h) {
    std::snprintf(line, sizeof(line), "h %s %llu %llu\n", k.c_str(),
                  static_cast<unsigned long long>(v.first),
                  static_cast<unsigned long long>(v.second));
    out += line;
  }
  return out;
}

Flat Parse(const char* text) {
  Flat f;
  char kind = 0;
  char name[200];
  unsigned long long a = 0;
  unsigned long long b = 0;
  int used = 0;
  while (std::sscanf(text, " %c %199s %llu%n", &kind, name, &a, &used) == 3) {
    text += used;
    if (kind == 'h') {
      if (std::sscanf(text, " %llu%n", &b, &used) != 1) {
        break;
      }
      text += used;
      f.h[name] = {a, b};
    } else {
      f.c[name] = a;
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// Per-host result slots and the closed-loop control block, in one shared
// mapping. A host that never sets `done` is counted as failed by the parent.

enum Kind { kRead, kWrite, kLock, kBarrier, kStep, kKinds };

constexpr uint32_t kSampleCap = 1u << 19;
constexpr uint32_t kSpanCap = 1u << 17;
constexpr size_t kMetricsBytes = 1 << 16;
constexpr uint32_t kMaxPool = 64;

struct HostHeader {
  std::atomic<uint32_t> done;  // set once the host finished its loop
  uint32_t fault_backend;
  uint64_t ready_ns;
  uint64_t loop_start_ns;
  uint64_t loop_end_ns;
  uint64_t fn_end_ns;
  uint64_t ops_started;
  uint64_t ops_done;
  uint64_t ops_failed;
  uint64_t malloc_calls;
  uint64_t malloc_ns;
  uint32_t n[kKinds];
  SpanLog spans;
};

struct HostSlot {
  HostHeader hdr;
  char metrics[kMetricsBytes];
  uint32_t samples[kKinds][kSampleCap];
  uint64_t barrier_entry_ns[kSampleCap];  // parallel to samples[kBarrier]
  Span span_buf[kSpanCap];
};

enum class Workload { kAppsInproc, kOpsForked, kBurstForked };

struct LoopCtl {
  Workload workload;
  uint64_t seed;
  uint64_t measure_ns;
  bool trace;
  std::atomic<uint32_t> turn;
  std::atomic<uint32_t> stop;
  std::atomic<uint32_t> abort;
  uint32_t pool_count;
  GlobalAddr pool[kMaxPool];
};

struct Channel {
  LoopCtl ctl;
  HostSlot host[kHosts];
};

void ResetChannel(Channel* ch, Workload w, uint64_t seed, uint64_t measure_ns, bool trace) {
  LoopCtl& c = ch->ctl;
  c.workload = w;
  c.seed = seed;
  c.measure_ns = measure_ns;
  c.trace = trace;
  c.turn.store(0);
  c.stop.store(0);
  c.abort.store(0);
  c.pool_count = 0;
  for (HostSlot& s : ch->host) {
    std::memset(static_cast<void*>(&s.hdr), 0, sizeof(s.hdr));
    s.hdr.spans.buf = s.span_buf;
    s.hdr.spans.cap = kSpanCap;
    s.metrics[0] = '\0';
  }
}

// ---------------------------------------------------------------------------
// The host-side closed loops. The same code runs on the threads of an
// in-process DsmCluster (RunParallel) and in forked children
// (RunForkedCluster); only the metrics-snapshot scope differs.

long Futex(std::atomic<uint32_t>* addr, int op, uint32_t val, const timespec* ts) {
  return ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(addr), op, val, ts, nullptr, 0);
}

class HostLoop {
 public:
  HostLoop(Channel* ch, DsmNode& node, HostId h, bool forked)
      : ctl_(ch->ctl), node_(node), h_(h), forked_(forked), slot_(ch->host[h]),
        hdr_(slot_.hdr), rng_(ctl_.seed * 1000003ULL + h) {}

  void Run() {
    BindTrace(ctl_.trace ? &hdr_.spans : nullptr, h_);
    {
      ScopedSpan setup(kSpanHostSetup);
      if (h_ == 0 && !Allocate()) {
        return Abort();
      }
      if (!node_.TryBarrier().ok() || ctl_.abort.load() != 0 || ctl_.pool_count == 0) {
        return Abort();
      }
      hdr_.ready_ns = MonotonicNowNs();
    }
    hdr_.fault_backend =
        static_cast<uint32_t>(millipage::FaultHandler::Instance().active_backend());
    const bool ops = ctl_.workload != Workload::kBurstForked;
    const uint64_t warmup = ops ? 2 * ctl_.pool_count : 2;
    uint64_t r = 0;
    for (; r < warmup; ++r) {
      if (!(ops ? OpsRound(r, false) : BurstRound(r, false))) {
        return Abort();
      }
    }
    const Flat before = Snapshot();
    {
      ScopedSpan loop(kSpanHostLoop);
      hdr_.loop_start_ns = MonotonicNowNs();
      deadline_ns_ = hdr_.loop_start_ns + ctl_.measure_ns;
      while (ctl_.stop.load() == 0) {
        if (!(ops ? OpsRound(r++, true) : BurstRound(r++, true))) {
          return Abort();
        }
      }
      hdr_.loop_end_ns = MonotonicNowNs();
    }
    const std::string text = Serialize(Minus(Snapshot(), before));
    if (text.size() + 1 > kMetricsBytes) {
      return Abort();
    }
    std::memcpy(slot_.metrics, text.c_str(), text.size() + 1);
    BindTrace(nullptr, h_);
    hdr_.fn_end_ns = MonotonicNowNs();
    hdr_.done.store(1);
  }

 private:
  void Abort() {
    ctl_.abort.store(1);
    Futex(&ctl_.turn, FUTEX_WAKE, INT_MAX, nullptr);
    BindTrace(nullptr, h_);
  }

  // Host 0 allocates the shared minipages and publishes their addresses
  // through the control block before the first barrier.
  bool Allocate() {
    const bool ops = ctl_.workload != Workload::kBurstForked;
    const uint32_t count = ops ? kOpsPool : kBurstPool;
    const uint64_t bytes = ops ? kOpsBytes : kBurstBytes;
    for (uint32_t i = 0; i < count; ++i) {
      ScopedSpan span(kSpanSharedMalloc);
      const uint64_t t0 = MonotonicNowNs();
      millipage::Result<GlobalAddr> a = node_.SharedMalloc(bytes);
      hdr_.malloc_ns += MonotonicNowNs() - t0;
      ++hdr_.malloc_calls;
      if (!a.ok()) {
        std::fprintf(stderr, "SharedMalloc: %s\n", a.status().ToString().c_str());
        return false;
      }
      ctl_.pool[i] = *a;
    }
    ctl_.pool_count = count;
    return true;
  }

  Flat Snapshot() const {
    // In-process hosts share one global registry: only host 0 counts it.
    Flat f = FromSnapshot(node_.SnapshotMetrics());
    if (forked_ || h_ == 0) {
      f.Add(FromSnapshot(millipage::MetricsRegistry::Global().Snapshot()));
    }
    return f;
  }

  void Record(bool rec, Kind k, uint64_t ns) {
    if (rec && hdr_.n[k] < kSampleCap) {
      slot_.samples[k][hdr_.n[k]++] = static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
    }
  }

  bool WaitTurn(uint32_t t) {
    for (int spin = 0;; ++spin) {
      const uint32_t cur = ctl_.turn.load(std::memory_order_acquire);
      if (cur == t) {
        return true;
      }
      if (ctl_.abort.load() != 0) {
        return false;
      }
      if (spin < 200) {
        continue;
      }
      const timespec ts{0, 50 * 1000 * 1000};
      Futex(&ctl_.turn, FUTEX_WAIT, cur, &ts);
    }
  }
  void PassTurn() {
    ctl_.turn.fetch_add(1, std::memory_order_release);
    Futex(&ctl_.turn, FUTEX_WAKE, INT_MAX, nullptr);
  }

  // Timed load of word 0 (the faulting access) plus an untimed load of the
  // last word; both must hold `expect`.
  void TimedRead(GlobalAddr a, uint32_t words, uint64_t expect, bool rec, bool is_fault) {
    ++hdr_.ops_started;
    volatile uint64_t* p = GlobalPtr<uint64_t>(a).get();
    uint64_t first = 0;
    {
      ScopedSpan span(kSpanRead);
      const uint64_t t0 = MonotonicNowNs();
      first = p[0];
      const uint64_t t1 = MonotonicNowNs();
      if (is_fault) {
        Record(rec, kRead, t1 - t0);
      }
    }
    const uint64_t last = p[words - 1];
    ++hdr_.ops_done;
    if (first != expect || last != expect) {
      ++hdr_.ops_failed;
      std::fprintf(stderr,
                   "host %u: read-back mismatch at view %u offset %llu: %llu/%llu != %llu\n",
                   h_, a.view, static_cast<unsigned long long>(a.offset),
                   static_cast<unsigned long long>(first),
                   static_cast<unsigned long long>(last),
                   static_cast<unsigned long long>(expect));
    }
  }

  void TimedWrite(GlobalAddr a, uint32_t words, uint64_t value, bool rec) {
    ++hdr_.ops_started;
    volatile uint64_t* p = GlobalPtr<uint64_t>(a).get();
    {
      ScopedSpan span(kSpanWrite);
      const uint64_t t0 = MonotonicNowNs();
      p[0] = value;
      Record(rec, kWrite, MonotonicNowNs() - t0);
    }
    for (uint32_t i = 1; i < words; ++i) {
      p[i] = value;
    }
    ++hdr_.ops_done;
  }

  bool TimedLockUnlock(uint32_t lock_id, bool rec) {
    ++hdr_.ops_started;
    const uint64_t t0 = MonotonicNowNs();
    {
      ScopedSpan span(kSpanLock);
      const millipage::Status st = node_.TryLock(lock_id);
      if (!st.ok()) {
        ++hdr_.ops_failed;
        std::fprintf(stderr, "host %u: TryLock(%u): %s\n", h_, lock_id, st.ToString().c_str());
        return false;
      }
    }
    {
      ScopedSpan span(kSpanUnlock);
      node_.Unlock(lock_id);
    }
    Record(rec, kLock, MonotonicNowNs() - t0);
    ++hdr_.ops_done;
    return true;
  }

  bool TimedBarrier(bool rec) {
    ++hdr_.ops_started;
    ScopedSpan span(kSpanBarrier);
    const uint64_t t0 = MonotonicNowNs();
    const millipage::Status st = node_.TryBarrier();
    if (!st.ok()) {
      ++hdr_.ops_failed;
      std::fprintf(stderr, "host %u: TryBarrier: %s\n", h_, st.ToString().c_str());
      return false;
    }
    if (rec && hdr_.n[kBarrier] < kSampleCap) {
      slot_.barrier_entry_ns[hdr_.n[kBarrier]] = t0;
    }
    Record(rec, kBarrier, MonotonicNowNs() - t0);
    ++hdr_.ops_done;
    return true;
  }

  // Host 0 ends the measured loop at the end of a round, before the round's
  // last barrier, so every host sees the same stop round after it.
  void MaybeStop(bool rec, uint32_t per_round) {
    if (!rec || h_ != 0) {
      return;
    }
    bool full = false;
    for (uint32_t k = 0; k < kKinds; ++k) {
      full = full || hdr_.n[k] + 2 * per_round > kSampleCap;
    }
    if (full || MonotonicNowNs() >= deadline_ns_) {
      ctl_.stop.store(1);
    }
  }

  // ops: one DSM operation in flight cluster-wide, handed from host to host
  // through the control block's turn word. Round r on minipage m = r % P
  // with writer w(r): the three other hosts read m (the previous writer hits,
  // the other two fault), w writes m (a write fault invalidating three read
  // copies), every host takes and releases its own lock homed on another
  // shard, then all hosts barrier.
  static constexpr uint32_t kOpsPool = 16;
  static constexpr uint64_t kOpsBytes = 128;
  static constexpr uint32_t kOpsWords = kOpsBytes / 8;

  HostId Writer(uint64_t r) const {
    return static_cast<HostId>((r + r / ctl_.pool_count) % kHosts);
  }
  uint64_t OpsValue(uint64_t r) const { return r * kHosts + Writer(r) + 1; }

  bool OpsRound(uint64_t r, bool rec) {
    const uint64_t t_round = MonotonicNowNs();
    const uint32_t P = ctl_.pool_count;
    const GlobalAddr m = ctl_.pool[r % P];
    const HostId w = Writer(r);
    const bool has_prev = r >= P;
    const uint64_t expect = has_prev ? OpsValue(r - P) : 0;
    const HostId prev_writer = has_prev ? Writer(r - P) : kHosts;
    const uint32_t base = static_cast<uint32_t>(r * (2 * kHosts));
    uint32_t step = 0;
    for (HostId x = 0; x < kHosts; ++x) {
      if (x == w) {
        continue;
      }
      if (x == h_) {
        if (!WaitTurn(base + step)) return false;
        TimedRead(m, kOpsWords, expect, rec, h_ != prev_writer);
        PassTurn();
      }
      ++step;
    }
    if (h_ == w) {
      if (!WaitTurn(base + step)) return false;
      TimedWrite(m, kOpsWords, OpsValue(r), rec);
      PassTurn();
    }
    ++step;
    if (!WaitTurn(base + step + h_)) return false;
    // Lock ids h+1 hash to shard (h+1) % hosts under the sharded policy.
    if (!TimedLockUnlock(h_ + 1, rec)) return false;
    PassTurn();
    MaybeStop(rec, 1);
    if (!TimedBarrier(rec)) return false;
    if (h_ == 0) {
      Record(rec, kStep, MonotonicNowNs() - t_round);
    }
    return true;
  }

  // burst: bulk-synchronous rounds over 64 minipages, host h owning
  // [16h, 16h+16). Every host reads all 64 (48 read faults), barrier; every
  // host writes its own 16 in a seeded order (each a write fault
  // invalidating three copies) and takes and releases its own lock, which
  // the manager serves between the write bursts; barrier.
  static constexpr uint32_t kBurstPool = 64;
  static constexpr uint64_t kBurstBytes = 64;
  static constexpr uint32_t kBurstWords = kBurstBytes / 8;

  bool BurstRound(uint64_t r, bool rec) {
    const uint64_t t_round = MonotonicNowNs();
    const uint32_t per_host = kBurstPool / kHosts;
    {
      ScopedSpan phase(kSpanBurstRead);
      for (uint32_t k = 0; k < kBurstPool; ++k) {
        const uint32_t m = (h_ * per_host + k) % kBurstPool;
        const uint64_t expect = r == 0 ? 0 : (r - 1) * kBurstPool + m + 1;
        TimedRead(ctl_.pool[m], kBurstWords, expect, rec, m / per_host != h_);
      }
    }
    if (!TimedBarrier(rec)) return false;
    {
      ScopedSpan phase(kSpanBurstWrite);
      std::vector<uint32_t> order(per_host);
      for (uint32_t i = 0; i < per_host; ++i) order[i] = h_ * per_host + i;
      std::shuffle(order.begin(), order.end(), rng_);
      for (uint32_t m : order) {
        TimedWrite(ctl_.pool[m], kBurstWords, r * kBurstPool + m + 1, rec);
      }
    }
    if (!TimedLockUnlock(h_ + 1, rec)) return false;
    MaybeStop(rec, kBurstPool);
    if (!TimedBarrier(rec)) return false;
    if (h_ == 0) {
      Record(rec, kStep, MonotonicNowNs() - t_round);
    }
    return true;
  }

  LoopCtl& ctl_;
  DsmNode& node_;
  const HostId h_;
  const bool forked_;
  HostSlot& slot_;
  HostHeader& hdr_;
  std::mt19937_64 rng_;
  uint64_t deadline_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Parent-side accumulation.

struct Samples {
  std::vector<uint32_t> v[kKinds];
};

struct Quantile {
  double value_us = 0;
  double q = 0;  // percentile actually used (may be below the request)
  size_t n = 0;
};

// Nearest-rank quantile of raw samples. Falls back to the highest percentile
// that keeps at least ten samples beyond it when `q` would not.
Quantile ExactQuantile(std::vector<uint32_t> v, double q) {
  Quantile out;
  out.n = v.size();
  if (v.empty()) {
    return out;
  }
  const double n = static_cast<double>(v.size());
  double used = q;
  if (q > 0.5 && n * (1 - q) < 10) {
    used = std::max(0.5, 1 - 10 / n);
  }
  size_t rank = static_cast<size_t>(std::ceil(used * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  out.value_us = v[rank - 1] / 1000.0;
  out.q = used;
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<uint32_t>& v) {
  if (v.empty()) {
    return 0;
  }
  double s = 0;
  for (uint32_t x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Run {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  std::vector<Samples> inst;  // one per cluster run
  Flat layer;  // program metrics over every measured phase
  Flat timed;  // program metrics over the phases with benchmark-timed accesses
  double loop_s = 0;
  double malloc_calls = 0;
  double malloc_ns = 0;
  std::vector<double> fork_ready_s, teardown_s, create_s;
  std::string fault_backend = "sigsegv";
  std::string transport = "inproc";
  std::string manager_policy = "centralized";

  std::vector<uint32_t> All(Kind k) const {
    std::vector<uint32_t> out;
    for (const Samples& s : inst) out.insert(out.end(), s.v[k].begin(), s.v[k].end());
    return out;
  }

  void Fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
};

const char* BackendName(uint32_t b) {
  return static_cast<millipage::FaultBackend>(b) == millipage::FaultBackend::kUserfaultfd
             ? "userfaultfd"
             : "sigsegv";
}

// Appends a host's spans to the parent's log; the host's root spans become
// children of `attach`, a span in the parent's log.
void MergeSpans(const SpanLog& host, int32_t attach, SpanLog* main_log) {
  const uint64_t base = main_log->n;
  for (uint64_t i = 0; i < host.n && main_log->n < main_log->cap; ++i) {
    Span sp = host.buf[i];
    sp.parent = sp.parent < 0 ? attach : static_cast<int32_t>(base + sp.parent);
    main_log->buf[main_log->n++] = sp;
  }
  main_log->dropped += host.dropped + (base + host.n - main_log->n);
}

// Folds one cluster run's host slots into `run`; a host that did not finish
// (crashed, swept, or aborted) counts its unfinished operations as failed.
void Collect(Channel* ch, Run* run, SpanLog* main_log, int32_t attach,
             const std::vector<millipage::HostOutcome>* outcomes) {
  Samples& cur = run->inst.emplace_back();
  for (uint16_t h = 0; h < kHosts; ++h) {
    HostSlot& s = ch->host[h];
    HostHeader& hd = s.hdr;
    bool ok = hd.done.load() != 0;
    if (outcomes != nullptr) {
      const millipage::HostOutcome& o = (*outcomes)[h];
      const bool exited_ok = o.exited && !o.signaled && !o.swept && o.exit_code == 0;
      ok = ok && exited_ok;
      if (!exited_ok) {
        run->Fail("host " + std::to_string(h) + (o.swept ? " swept by watchdog" : "") +
                  (o.signaled ? " killed by signal " + std::to_string(o.term_signal) : "") +
                  (!o.signaled && o.exit_code != 0 ? " exited " + std::to_string(o.exit_code)
                                                   : ""));
      }
    }
    run->attempted += hd.ops_started;
    run->failed += hd.ops_failed;
    if (!ok) {
      const uint64_t unfinished = hd.ops_started - hd.ops_done;
      run->failed += std::max<uint64_t>(1, unfinished);
      run->attempted += unfinished == 0 ? 1 : 0;
      run->Fail("host " + std::to_string(h) + " did not finish its loop");
      continue;
    }
    if (hd.ops_failed != 0) {
      run->Fail("host " + std::to_string(h) + " had " + std::to_string(hd.ops_failed) +
                " failed operations");
    }
    for (uint32_t k = 0; k < kKinds; ++k) {
      if (k != kBarrier) {
        cur.v[k].insert(cur.v[k].end(), s.samples[k], s.samples[k] + hd.n[k]);
      }
    }
    const Flat f = Parse(s.metrics);
    run->layer.Add(f);
    run->timed.Add(f);
    run->malloc_calls += static_cast<double>(hd.malloc_calls);
    run->malloc_ns += static_cast<double>(hd.malloc_ns);
    run->fault_backend = BackendName(hd.fault_backend);
    if (h == 0) {
      run->loop_s += static_cast<double>(hd.loop_end_ns - hd.loop_start_ns) / 1e9;
    }
    if (main_log != nullptr) {
      MergeSpans(hd.spans, attach, main_log);
    }
  }
  // A barrier's latency is the call time of the host that arrived last; the
  // other hosts' calls also include waiting for it.
  uint32_t barriers = kSampleCap;
  for (const HostSlot& s : ch->host) {
    barriers = std::min(barriers, s.hdr.n[kBarrier]);
  }
  for (uint32_t i = 0; run->correct && i < barriers; ++i) {
    const HostSlot* last = &ch->host[0];
    for (const HostSlot& s : ch->host) {
      if (s.barrier_entry_ns[i] > last->barrier_entry_ns[i]) {
        last = &s;
      }
    }
    cur.v[kBarrier].push_back(last->samples[kBarrier][i]);
  }
}

// ---------------------------------------------------------------------------
// Workloads.

struct Options {
  Workload workload = Workload::kAppsInproc;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

struct AppSpec {
  const char* key;
  uint32_t chunking;
  std::function<std::unique_ptr<millipage::App>()> make;
};

// The bench_fig6_speedups full sizes (or its smoke sizes with --tiny).
std::vector<AppSpec> AppSuite(const Options& o) {
  const bool t = o.tiny;
  return {
      {"sor", 1,
       [t] {
         millipage::SorConfig c;
         c.rows = t ? 512 : 32768;
         c.cols = 64;
         c.iterations = t ? 2 : 10;
         return std::make_unique<millipage::SorApp>(c);
       }},
      {"lu", 1,
       [t] {
         millipage::LuConfig c;
         c.n = t ? 128 : 768;
         c.block = 32;
         return std::make_unique<millipage::LuApp>(c);
       }},
      {"water", 4,
       [t] {
         millipage::WaterConfig c;
         c.num_molecules = t ? 64 : 512;
         c.iterations = t ? 1 : 3;
         return std::make_unique<millipage::WaterApp>(c);
       }},
      {"is", 1,
       [t] {
         millipage::IsConfig c;
         c.num_keys = 1u << (t ? 13 : 23);
         c.iterations = t ? 2 : 5;
         return std::make_unique<millipage::IsApp>(c);
       }},
      {"tsp", 1,
       [t, seed = o.seed] {
         millipage::TspConfig c;
         c.num_cities = t ? 9 : 13;
         c.prefix_depth = 3;
         c.seed = seed;
         return std::make_unique<millipage::TspApp>(c);
       }},
  };
}

DsmConfig AppConfig(uint16_t hosts, uint32_t chunking) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 32 << 20;
  cfg.num_views = 32;
  cfg.chunking_level = chunking;
  return cfg;
}

struct AppTiming {
  double create_s = 0;
  double setup_s = 0;
  double solve_s = 0;
  Flat delta;
};

// Create + Setup + timed Worker + Validate of one app on a fresh cluster
// (only Create + Setup when `setup_only`).
bool RunOneApp(const AppSpec& spec, uint16_t hosts, bool setup_only, Channel* ch,
               SpanLog* main_log, Run* run, AppTiming* t) {
  ++run->attempted;
  std::unique_ptr<millipage::App> app = spec.make();
  std::unique_ptr<DsmCluster> cluster;
  {
    ScopedSpan span(kSpanClusterCreate);
    const uint64_t t0 = MonotonicNowNs();
    auto c = DsmCluster::Create(AppConfig(hosts, spec.chunking));
    t->create_s = static_cast<double>(MonotonicNowNs() - t0) / 1e9;
    if (!c.ok()) {
      ++run->failed;
      run->Fail(std::string(spec.key) + ": cluster create: " + c.status().ToString());
      return false;
    }
    cluster = std::move(*c);
  }
  run->fault_backend = BackendName(
      static_cast<uint32_t>(millipage::FaultHandler::Instance().active_backend()));
  const Flat before = FromSnapshot(cluster->SnapshotMetrics());
  {
    ScopedSpan span(kSpanAppSetup);
    const uint64_t t0 = MonotonicNowNs();
    cluster->RunOnManager([&](DsmNode& m) { app->Setup(m); });
    t->setup_s = static_cast<double>(MonotonicNowNs() - t0) / 1e9;
  }
  if (setup_only) {
    return true;
  }
  {
    ScopedSpan span(kSpanRunParallel);
    for (HostSlot& s : ch->host) {
      s.hdr.spans.n = 0;
      s.hdr.spans.dropped = 0;
    }
    const bool trace = main_log != nullptr && tl_log != nullptr;
    const uint64_t t0 = MonotonicNowNs();
    cluster->RunParallel([&](DsmNode& node, HostId h) {
      BindTrace(trace ? &ch->host[h].hdr.spans : nullptr, h);
      {
        ScopedSpan worker(kSpanAppWorker);
        app->Worker(node, h);
      }
      BindTrace(nullptr, h);
    });
    t->solve_s = static_cast<double>(MonotonicNowNs() - t0) / 1e9;
    for (uint16_t h = 0; trace && h < hosts; ++h) {
      MergeSpans(ch->host[h].hdr.spans, span.id(), main_log);
    }
  }
  millipage::Status valid = millipage::Status::Ok();
  {
    ScopedSpan span(kSpanAppValidate);
    cluster->RunOnManager([&](DsmNode& m) { valid = app->Validate(m); });
  }
  t->delta = Minus(FromSnapshot(cluster->SnapshotMetrics()), before);
  if (!valid.ok()) {
    ++run->failed;
    run->Fail(std::string(spec.key) + " on " + std::to_string(hosts) +
              " hosts failed Validate: " + valid.ToString());
    return false;
  }
  return true;
}

// One closed-loop cluster run (ops or burst), in-process or forked. Returns
// the wall time from the start of the run until every host passed its first
// barrier (negative if some host never got there).
double RunLoopCluster(Workload w, bool forked, const Options& o, uint64_t measure_ns,
                      bool trace, Channel* ch, SpanLog* main_log, Run* run) {
  ResetChannel(ch, w, o.seed, measure_ns, trace);
  DsmConfig cfg;
  cfg.num_hosts = kHosts;
  cfg.manager_policy = w == Workload::kOpsForked ? millipage::ManagerPolicy::kSharded
                                                 : millipage::ManagerPolicy::kCentralized;
  run->manager_policy = w == Workload::kOpsForked ? "sharded" : "centralized";
  const uint64_t t0 = MonotonicNowNs();
  uint64_t t_end = 0;
  int32_t attach = -1;
  auto host_fn = [ch, forked](DsmNode& node, HostId h) { HostLoop(ch, node, h, forked).Run(); };
  if (forked) {
    run->transport = cfg.transport_backend == millipage::TransportBackend::kUring &&
                             millipage::UringTransportSupported()
                         ? "uring"
                         : "socket";
    std::vector<millipage::HostOutcome> outcomes;
    {
      ScopedSpan span(kSpanForkedRun);
      attach = span.id();
      const uint64_t timeout_ms = measure_ns / 1000000 + 60000;
      const millipage::Status st =
          millipage::RunForkedCluster(cfg, host_fn, timeout_ms, &outcomes);
      t_end = MonotonicNowNs();
      if (!st.ok()) {
        run->Fail("RunForkedCluster: " + st.ToString());
      }
    }
    Collect(ch, run, trace ? main_log : nullptr, attach, &outcomes);
  } else {
    auto c = DsmCluster::Create(cfg);
    if (!c.ok()) {
      ++run->attempted;
      ++run->failed;
      run->Fail("cluster create: " + c.status().ToString());
      return -1;
    }
    {
      ScopedSpan span(kSpanRunParallel);
      attach = span.id();
      (*c)->RunParallel(host_fn);
    }
    t_end = MonotonicNowNs();
    Collect(ch, run, trace ? main_log : nullptr, attach, nullptr);
  }
  uint64_t ready = 0;
  uint64_t fn_end = 0;
  for (const HostSlot& s : ch->host) {
    if (s.hdr.ready_ns == 0) {
      return -1;
    }
    ready = std::max(ready, s.hdr.ready_ns);
    fn_end = std::max(fn_end, s.hdr.fn_end_ns);
  }
  if (forked) {
    if (trace && main_log->n < main_log->cap) {
      main_log->buf[main_log->n++] = Span{t0, ready, attach, kSpanForkReady, kMainThread};
    }
    run->teardown_s.push_back(static_cast<double>(t_end - fn_end) / 1e9);
  }
  return static_cast<double>(ready - t0) / 1e9;
}

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // name -> JSON

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

double PeakRssMb() {
  rusage self{};
  rusage kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// Per-layer metrics of the program layers (dsm, net, os, multiview), from the
// program's own counters and the benchmark's timed samples.
void AddLayerMetrics(const Run& run, Report* rep) {
  const Flat& d = run.layer;
  const double rf = d.C("host.read_faults");
  const double wf = d.C("host.write_faults");
  const double faults = rf + wf;
  rep->Add("dsm.read_faults", rf, "count");
  rep->Add("dsm.write_faults", wf, "count");
  rep->Add("dsm.read_fault_us_mean", d.HMean("dsm.read_fault_ns") / 1e3, "us");
  rep->Add("dsm.write_fault_us_mean", d.HMean("dsm.write_fault_ns") / 1e3, "us");
  rep->Add("dsm.lock_us_mean", d.HMean("dsm.lock_ns") / 1e3, "us");
  rep->Add("dsm.barrier_us_mean", d.HMean("dsm.barrier_ns") / 1e3, "us");
  rep->Add("dsm.competing_requests", d.C("host.competing_requests"), "count");
  rep->Add("dsm.invalidation_rounds", d.C("mgr.invalidation_rounds"), "count");
  rep->Add("dsm.remote_routed", d.C("mgr.remote_routed"), "count");
  rep->Add("dsm.batch_records", d.C("host.batch_records_sent"), "count");
  rep->Add("dsm.batch_frames", d.C("host.batch_frames_sent"), "count");
  rep->Add("dsm.records_per_frame",
           Ratio(d.C("host.batch_records_sent"), d.C("host.batch_frames_sent")), "ratio");
  rep->Add("dsm.retries",
           d.C("dsm.timeout_retries") + d.C("dsm.fault_retries") + d.C("dsm.stale_replies") +
               d.C("dsm.bounced_requests"),
           "count");
  rep->Add("dsm.shared_malloc_us", Ratio(run.malloc_ns, run.malloc_calls) / 1e3, "us");
  rep->Add("cluster.create_s", Median(run.create_s), "s");
  rep->Add("cluster.fork_ready_s", Median(run.fork_ready_s), "s");
  rep->Add("cluster.teardown_s", Median(run.teardown_s), "s");

  // net.* counts the socket transport only (the in-process transport sends
  // no datagrams), so it reads 0 on in-process runs.
  const double msgs = d.C("net.msgs_sent");
  rep->Add("net.msgs_per_fault", Ratio(msgs, faults), "ratio");
  rep->Add("net.bytes_per_fault", Ratio(msgs * d.HMean("net.send_bytes"), faults), "B");
  rep->Add("net.syscalls_per_msg", Ratio(d.C("net.syscalls"), msgs), "ratio");
  rep->Add("net.send_us_mean", msgs == 0 ? 0.0 : d.HMean("net.send_ns") / 1e3, "us");

  const Flat& t = run.timed;
  std::vector<uint32_t> accesses = run.All(kRead);
  const std::vector<uint32_t> writes = run.All(kWrite);
  accesses.insert(accesses.end(), writes.begin(), writes.end());
  const double service_ns = t.HMean("fault.service_ns");
  rep->Add("os.fault_service_us_mean", service_ns / 1e3, "us");
  rep->Add("os.fault_decode_us_mean", t.HMean("fault.decode_ns") / 1e3, "us");
  rep->Add("os.fault_delivery_us", accesses.empty() ? 0.0 : (Mean(accesses) - service_ns) / 1e3,
           "us");

  rep->Add("mv.prot_sets_per_fault", Ratio(d.C("mv.prot_sets"), faults), "ratio");
  rep->Add("mv.prot_pages_per_set", Ratio(d.C("mv.prot_set_pages"), d.C("mv.prot_sets")),
           "ratio");
  rep->Add("mv.mpt_lookups", d.C("mgr.mpt_lookups"), "count");
}

// Self time of every span (duration minus the union of its children's
// intervals), summed per span name.
std::vector<double> SelfTimesMs(const SpanLog& log) {
  std::vector<std::vector<uint32_t>> kids(log.n);
  for (uint64_t i = 0; i < log.n; ++i) {
    const int32_t p = log.buf[i].parent;
    if (p >= 0 && static_cast<uint64_t>(p) < log.n) {
      kids[p].push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<double> self(kNumSpanNames, 0.0);
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (uint64_t i = 0; i < log.n; ++i) {
    const Span& s = log.buf[i];
    if (s.end_ns < s.start_ns) {
      continue;
    }
    iv.clear();
    for (uint32_t k : kids[i]) {
      const Span& c = log.buf[k];
      const uint64_t a = std::max(c.start_ns, s.start_ns);
      const uint64_t b = std::min(c.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_a = 0;
    uint64_t cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

bool WriteTrace(const std::string& path, const Options& o, uint64_t run_id,
                const SpanLog& log) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    return false;
  }
  std::fprintf(f, "{\"run_id\": \"%016llx\", \"workload\": \"%s\", \"seed\": %llu, ",
               static_cast<unsigned long long>(run_id), o.workload_name.c_str(),
               static_cast<unsigned long long>(o.seed));
  std::fprintf(f, "\"dropped\": %llu, \"fields\": [\"id\", \"name\", \"host\", \"start_ns\", "
               "\"end_ns\", \"parent\"], \"spans\": [",
               static_cast<unsigned long long>(log.dropped));
  for (uint64_t i = 0; i < log.n; ++i) {
    const Span& s = log.buf[i];
    std::fprintf(f, "%s\n[%llu, \"%s\", %d, %llu, %llu, %d]", i == 0 ? "" : ",",
                 static_cast<unsigned long long>(i), kSpanNames[s.name],
                 s.host == kMainThread ? -1 : static_cast<int>(s.host),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// Per-pass results of the apps workload.
struct PassStats {
  std::vector<double> setup_s, solve_s;
  std::map<std::string, std::vector<double>> app_solve_s;
  double faults = 0;
  double solve_total_s = 0;
};

// One pass of the five apps; `before_app` runs ahead of each app's cluster.
void AppsPass(const Options& o, bool setup_only, const std::function<void()>& before_app,
              Channel* ch, SpanLog* main_log, Run* run, PassStats* ps) {
  double setup = 0;
  double solve = 0;
  for (const AppSpec& spec : AppSuite(o)) {
    before_app();
    AppTiming t;
    if (!RunOneApp(spec, kHosts, setup_only, ch, main_log, run, &t)) {
      continue;
    }
    setup += t.create_s + t.setup_s;
    run->create_s.push_back(t.create_s);
    if (setup_only) {
      continue;
    }
    solve += t.solve_s;
    ps->app_solve_s[spec.key].push_back(t.solve_s);
    ps->faults += t.delta.C("host.read_faults") + t.delta.C("host.write_faults");
    run->layer.Add(t.delta);
  }
  ps->setup_s.push_back(setup);
  if (!setup_only) {
    ps->solve_s.push_back(solve);
    ps->solve_total_s += solve;
  }
}

// Each quantile is computed per cluster run from its raw samples; the
// reported value is the median over the runs, so one run disturbed by the
// machine cannot move it alone. Only the write fault and the round are
// metrics; the others are printed on the `#` lines. The p95 tails spread
// past any usable bound on a shared machine, and the read fault, lock and
// barrier p50s (tens of microseconds, mostly thread wake-ups) shifted by
// 30-70% together on every workload when the host's load changed.
void AddQuantiles(const Run& run, Report* rep) {
  struct Q {
    const char* name;
    Kind kind;
    double q;
    bool metric;
  };
  const Q qs[] = {
      {"read_fault_p50_us", kRead, 0.5, false},  {"read_fault_p95_us", kRead, 0.95, false},
      {"write_fault_p50_us", kWrite, 0.5, true}, {"write_fault_p95_us", kWrite, 0.95, false},
      {"lock_p50_us", kLock, 0.5, false},        {"barrier_p50_us", kBarrier, 0.5, false},
      {"step_p50_us", kStep, 0.5, true},
  };
  for (const Q& q : qs) {
    std::vector<double> per_run;
    size_t n = 0;
    size_t min_n = SIZE_MAX;
    double used = q.q;
    for (const Samples& s : run.inst) {
      if (s.v[q.kind].empty()) {
        continue;
      }
      const Quantile r = ExactQuantile(s.v[q.kind], q.q);
      per_run.push_back(r.value_us);
      n += r.n;
      min_n = std::min(min_n, r.n);
      used = std::min(used, r.q);
    }
    const double value = Median(per_run);
    if (q.metric) {
      rep->Add(q.name, value, "us");
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "{\"value\": %.6g, \"unit\": \"us\", \"n\": %zu, \"runs\": %zu, "
                  "\"min_n_per_run\": %zu, \"percentile\": %.4g}",
                  value, n, per_run.size(), per_run.empty() ? 0 : min_n, used * 100);
    rep->info.emplace_back(q.name, buf);
  }
}

// apps.* per-layer metrics; all 0 on the workloads that run no apps.
void AddAppMetrics(const Options& o, const PassStats& ps, double solve_1h, Report* rep) {
  for (const AppSpec& spec : AppSuite(o)) {
    auto it = ps.app_solve_s.find(spec.key);
    rep->Add(std::string("apps.") + spec.key + ".solve_s",
             it == ps.app_solve_s.end() ? 0.0 : Median(it->second), "s");
  }
  rep->Add("apps.solve_1h_s", solve_1h, "s");
  rep->Add("apps.speedup", Ratio(solve_1h, Median(ps.solve_s)), "x");
  rep->Add("apps.setup_s", Median(ps.setup_s), "s");
}

// The forked workloads' fixed job, timed at the measured round rate.
double JobRounds(Workload w) { return w == Workload::kOpsForked ? 1000 : 100; }

int Main(const Options& o) {
  const IdleSpinners spinners;
  const uint64_t run_start = MonotonicNowNs();
  const uint64_t run_id = (o.seed << 32) ^ run_start;
  Channel* ch = static_cast<Channel*>(MapShared(sizeof(Channel)));
  SpanLog main_log;
  constexpr uint64_t kMainSpanCap = 1u << 21;
  main_log.buf = static_cast<Span*>(MapShared(kMainSpanCap * sizeof(Span)));
  main_log.cap = kMainSpanCap;

  Run run;
  Report rep;
  const uint64_t seconds_ns = static_cast<uint64_t>(o.seconds * 1e9);
  std::vector<double> untraced_cost, traced_cost;  // for bench.trace_overhead_pct

  // Untraced work first; with --trace 1 the same work runs again traced and
  // only the traced half feeds the per-layer metrics.
  const int halves = o.trace ? 2 : 1;
  for (int half = 0; half < halves; ++half) {
    const bool traced = o.trace && half == 1;
    Run local;
    BindTrace(traced ? &main_log : nullptr, kMainThread);
    ScopedSpan root(kSpanRun);
    const uint64_t budget_ns = seconds_ns / halves;
    // Fault, lock and set-up latencies depend on what the machine ran over
    // the preceding ~15 s (right after an apps-inproc run, the forked read
    // fault read 2x slower for about 12 s). So the measured part follows a
    // warm-up of at least a third of its budget at the workload's own
    // load, whose outputs are checked and whose samples are dropped.
    auto warm_up = [&](const std::function<void(Run*)>& step) {
      if (half != 0) {
        return;
      }
      Run warm;
      const uint64_t warm_end = MonotonicNowNs() + budget_ns / 3;
      do {
        step(&warm);
      } while (warm.correct && MonotonicNowNs() < warm_end);
      local.attempted += warm.attempted;
      local.failed += warm.failed;
      local.correct = warm.correct;
    };
    if (o.workload == Workload::kAppsInproc) {
      // One iteration is a full pass of the five apps with a probe cluster
      // ahead of each app (the ops closed loop on a 4-host in-process
      // cluster, the no-socket control for the forked workloads), then a
      // set-up-only pass. Short probes spread over the whole run average
      // out the machine's second-to-second swings. An app pass cannot stop
      // early, so iterations start while one more still fits in the
      // budget, with at least kMinIterations.
      constexpr int kMinIterations = 3;
      const uint64_t probe_ns = budget_ns / 50;
      auto iteration = [&](Run* r, PassStats* p) {
        const auto probe = [&] {
          RunLoopCluster(Workload::kAppsInproc, false, o, probe_ns, traced, ch, &main_log, r);
        };
        AppsPass(o, false, probe, ch, &main_log, r, p);
        AppsPass(o, true, [] {}, ch, &main_log, r, p);
      };
      PassStats warm_ps;
      warm_up([&](Run* r) { iteration(r, &warm_ps); });
      PassStats ps;
      const uint64_t measure_end = MonotonicNowNs() + budget_ns;
      uint64_t last_ns = 0;
      for (int it = 0; local.correct && (it < kMinIterations ||
                                         MonotonicNowNs() + last_ns <= measure_end);
           ++it) {
        const uint64_t t0 = MonotonicNowNs();
        iteration(&local, &ps);
        last_ns = MonotonicNowNs() - t0;
      }
      // 1-host baseline (traced runs only): no sharing, same inputs.
      double solve_1h = 0;
      for (const AppSpec& spec : traced ? AppSuite(o) : std::vector<AppSpec>{}) {
        AppTiming t;
        if (RunOneApp(spec, 1, false, ch, nullptr, &local, &t)) {
          solve_1h += t.solve_s;
        }
      }
      const double solve = Median(ps.solve_s);
      if (!o.trace) {
        rep.Add("setup_s", Median(ps.setup_s), "s");
        rep.Add("solve_s", solve, "s");
        rep.Add("faults_per_s", Ratio(ps.faults, ps.solve_total_s), "1/s");
      } else if (traced) {
        AddAppMetrics(o, ps, solve_1h, &rep);
      }
      (traced ? traced_cost : untraced_cost).push_back(solve);
    } else {
      // Several forked clusters per run: each gives one set-up sample and a
      // share of the measured loop.
      const int instances = o.trace ? 2 : 12;
      const uint64_t cluster_ns = budget_ns / instances;
      warm_up([&](Run* r) {
        RunLoopCluster(o.workload, true, o, cluster_ns, false, ch, &main_log, r);
      });
      for (int k = 0; k < instances && local.correct; ++k) {
        const double ready =
            RunLoopCluster(o.workload, true, o, cluster_ns, traced, ch, &main_log, &local);
        if (ready >= 0) {
          local.fork_ready_s.push_back(ready);
        }
      }
      const double faults =
          static_cast<double>(local.All(kRead).size() + local.All(kWrite).size());
      if (!o.trace) {
        rep.Add("setup_s", Median(local.fork_ready_s), "s");
        const double rounds = static_cast<double>(local.All(kStep).size());
        rep.Add("solve_s", Ratio(local.loop_s, rounds) * JobRounds(o.workload), "s");
        rep.Add("faults_per_s", Ratio(faults, local.loop_s), "1/s");
      } else if (traced) {
        AddAppMetrics(o, PassStats{}, 0.0, &rep);
      }
      (traced ? traced_cost : untraced_cost).push_back(Mean(local.All(kStep)));
    }
    if (!o.trace) {
      AddQuantiles(local, &rep);
      rep.Add("peak_rss_mb", PeakRssMb(), "MB");
    }
    if (traced) {
      AddLayerMetrics(local, &rep);
    }
    run.attempted += local.attempted;
    run.failed += local.failed;
    run.correct = run.correct && local.correct;
    run.fault_backend = local.fault_backend;
    run.transport = local.transport;
    run.manager_policy = local.manager_policy;
  }
  BindTrace(nullptr, kMainThread);

  const double error_rate =
      Ratio(static_cast<double>(run.failed), static_cast<double>(run.attempted));
  if (o.trace) {
    const double overhead =
        (Ratio(Median(traced_cost), Median(untraced_cost)) - 1.0) * 100.0;
    rep.Add("bench.trace_overhead_pct", overhead, "%");
    rep.Add("bench.error_rate", error_rate, "ratio");
    rep.Add("bench.spans", static_cast<double>(main_log.n), "count");
    rep.Add("bench.spans_dropped", static_cast<double>(main_log.dropped), "count");
    const std::vector<double> self = SelfTimesMs(main_log);
    for (int i = 0; i < kNumSpanNames; ++i) {
      rep.Add(std::string("span.") + kSpanNames[i] + ".self_ms", self[i], "ms");
    }
    if (!o.trace_out.empty() && !WriteTrace(o.trace_out, o, run_id, main_log)) {
      run.Fail("could not write " + o.trace_out);
    }
  }
  if (run.failed != 0) {
    run.correct = false;
  }

  // Effective configuration, after any backend fallback.
  std::printf("# config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"tiny\": %d, \"hosts\": %u, \"nproc\": %ld, \"manager_policy\": \"%s\", "
              "\"fault_backend\": \"%s\", \"transport\": \"%s\", \"build_type\": \"%s\", "
              "\"error_rate\": %.6g}\n",
              o.workload_name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.tiny ? 1 : 0, kHosts, ::sysconf(_SC_NPROCESSORS_ONLN),
              run.manager_policy.c_str(), run.fault_backend.c_str(), run.transport.c_str(),
              PERFBENCH_BUILD_TYPE, error_rate);
  for (const auto& [k, v] : rep.info) {
    std::printf("# samples %s %s\n", k.c_str(), v.c_str());
  }
  if (o.trace && !o.trace_out.empty()) {
    std::printf("# trace %s\n", o.trace_out.c_str());
  }
  std::string out = "{\"correct\": ";
  out += run.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rep.metrics[i].name.c_str(), rep.metrics[i].value,
                  rep.metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (v == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    ++i;
    if (a == "--workload") {
      o.workload_name = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace_out") {
      o.trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (o.workload_name == "apps-inproc") {
    o.workload = perfbench::Workload::kAppsInproc;
  } else if (o.workload_name == "ops-forked") {
    o.workload = perfbench::Workload::kOpsForked;
  } else if (o.workload_name == "burst-forked") {
    o.workload = perfbench::Workload::kBurstForked;
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", o.workload_name.c_str());
    return 2;
  }
  if (!(o.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  return perfbench::Main(o);
}
