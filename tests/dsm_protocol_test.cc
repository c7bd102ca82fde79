// Protocol-level DSM tests: directory state, competing requests, prefetch,
// push updates, locks, barriers, epochs, allocation failure, service modes,
// and a sequential-consistency stress.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "src/common/failpoint.h"
#include "src/common/time_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/dsm/node.h"
#include "src/net/faulty_transport.h"
#include "src/net/inproc_transport.h"
#include "src/os/fault_handler.h"

namespace millipage {
namespace {

DsmConfig Cfg(uint16_t hosts) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  // MILLIPAGE_MANAGER_POLICY=sharded re-runs the whole suite with the
  // directory sharded across hosts (the CI matrix sets it).
  const char* policy = std::getenv("MILLIPAGE_MANAGER_POLICY");
  if (policy != nullptr && std::string(policy) == "sharded") {
    cfg.manager_policy = ManagerPolicy::kSharded;
  }
  // MILLIPAGE_FAULT_BACKEND=uffd likewise re-runs the suite with views wired
  // to the userfaultfd backend (falls back to sigsegv on old kernels).
  cfg.fault_backend = FaultBackendFromEnv();
  return cfg;
}

// Ends `a`'s never-shared state: `node`'s read fault takes the sole copy
// (first-touch migration), so every later read replicates as in Fig. 3.
void FirstTouch(DsmNode& node, GlobalAddr a) {
  const Status st = node.FaultService(a.view, a.offset, /*is_write=*/false);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

Protection ProtectionAt(DsmNode& node, GlobalAddr a) {
  return node.views().GetVpageProtection(a.view, a.offset / PageSize());
}

TEST(Protocol, UpgradeWriteAfterRead) {
  // A host holding a read copy upgrades in place: the write grant carries no
  // payload.
  auto cluster = DsmCluster::Create(Cfg(3));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 5;
  });
  FirstTouch((*cluster)->node(2), p.addr());
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      EXPECT_EQ(*p, 5);   // read fault: copy arrives
      *p = 6;             // host 2 still has a copy -> invalidation round
      EXPECT_EQ(*p, 6);
    }
    node.Barrier();
  });
  const CounterValues c1 = (*cluster)->node(1).metrics().Counters();
  EXPECT_EQ(c1[Metric::kReadFaults], 1u);
  EXPECT_EQ(c1[Metric::kWriteFaults], 1u);
  // The write was an upgrade (requester already held a copy): no data moved.
  EXPECT_EQ(c1[Metric::kWriteFaultBytes], 0u);
  // The other holder's copy was invalidated.
  EXPECT_EQ((*cluster)->node(2).counter(Metric::kInvalidationsReceived), 1u);
}

TEST(Protocol, FirstTouchReadTakesSoleCopy) {
  // A read of a minipage nobody has been granted yet moves the sole copy,
  // ReadWrite, to the reader: its later write takes no fault, and the
  // allocator's copy is gone. The next reader gets a replica from the new
  // owner, as in Fig. 3.
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 5;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      EXPECT_EQ(*p, 5);  // read fault: the sole copy arrives ReadWrite
      *p = 6;            // no fault
    }
    node.Barrier();
    if (host == 0) {
      EXPECT_EQ(ProtectionAt(node, p.addr()), Protection::kNoAccess);
      EXPECT_EQ(*p, 6);  // an ordinary read: host 1 serves a replica
    }
    node.Barrier();
  });
  const CounterValues c1 = (*cluster)->node(1).metrics().Counters();
  EXPECT_EQ(c1[Metric::kReadFaults], 1u);
  EXPECT_EQ(c1[Metric::kWriteFaults], 0u);
  EXPECT_EQ((*cluster)->node(0).counter(Metric::kReadFaults), 1u);
  EXPECT_GT((*cluster)->node(0).counter(Metric::kReadFaultBytes), 0u);
  // Serving the replica downgraded the new owner to ReadOnly.
  EXPECT_EQ(ProtectionAt((*cluster)->node(0), p.addr()), Protection::kReadOnly);
  EXPECT_EQ(ProtectionAt((*cluster)->node(1), p.addr()), Protection::kReadOnly);
  EXPECT_EQ((*cluster)->TotalCounter(Metric::kFirstTouchMigrations), 1u);
  EXPECT_EQ((*cluster)->TotalCounter(Metric::kInvalidationRounds), 0u);
}

TEST(Protocol, WriteMovesDataWhenRequesterHasNoCopy) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(16);
    p[3] = 33;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      p[0] = 1;  // write fault without prior copy: data must travel
      EXPECT_EQ(p[3], 33) << "rest of the minipage must arrive with the grant";
    }
    node.Barrier();
  });
  const CounterValues c1 = (*cluster)->node(1).metrics().Counters();
  EXPECT_EQ(c1[Metric::kWriteFaults], 1u);
  EXPECT_EQ(c1[Metric::kWriteFaultBytes], 64u);
}

TEST(Protocol, CompetingRequestsAreCountedAndServed) {
  // Many hosts read-fault the same minipage at once; the manager serves them
  // one at a time (ACK-serialized) and counts the queued ones.
  auto cluster = DsmCluster::Create(Cfg(6));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 1234;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId) {
    node.Barrier();  // line everyone up
    EXPECT_EQ(*p, 1234);
    node.Barrier();
  });
  EXPECT_GE((*cluster)->TotalCounter(Metric::kRequestsServed), 5u);
  // At least some of the simultaneous faults must have queued. Under the
  // userfaultfd backend the in-process cluster funnels every host's faults
  // through one poller thread, so requests are serialized before they reach
  // the manager and nothing can queue — the counter stays 0 by construction.
  if (FaultBackendFromEnv() != FaultBackend::kUserfaultfd) {
    EXPECT_GE((*cluster)->TotalCounter(Metric::kCompetingRequests), 1u);
  }
}

TEST(Protocol, PrefetchAvoidsBlockingFault) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(64);
    p[7] = 77;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      node.Prefetch(p.addr());
      // Wait for the asynchronous fetch to land (bounded by a deadline, not
      // a spin count: sanitizer builds can take far longer), then the access
      // must not fault (the vpage is already readable).
      const uint64_t vpage = p.addr().offset / 4096;
      const uint64_t deadline_ns = MonotonicNowNs() + 5'000'000'000ull;
      while (node.views().GetVpageProtection(p.addr().view, vpage) == Protection::kNoAccess &&
             MonotonicNowNs() < deadline_ns) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      EXPECT_EQ(p[7], 77);
    }
    node.Barrier();
  });
  const CounterValues c1 = (*cluster)->node(1).metrics().Counters();
  EXPECT_EQ(c1[Metric::kPrefetches], 1u);
  EXPECT_GE(c1[Metric::kPrefetchBytes], 256u);
  EXPECT_EQ(c1[Metric::kReadFaults], 0u);
  // A prefetch of a fresh minipage replicates: its issuer fetches to read
  // alongside the holder, so it never migrates the sole copy.
  EXPECT_EQ(ProtectionAt((*cluster)->node(0), p.addr()), Protection::kReadOnly);
  EXPECT_EQ(ProtectionAt((*cluster)->node(1), p.addr()), Protection::kReadOnly);
  EXPECT_EQ((*cluster)->TotalCounter(Metric::kFirstTouchMigrations), 0u);
}

TEST(Protocol, FetchGroupBatchesReads) {
  // Composed-view coarse read (Section 5): one split-transaction call pulls
  // a group of minipages; subsequent reads take no faults.
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  std::vector<GlobalPtr<int>> cells;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < 12; ++i) {
      cells.push_back(SharedAlloc<int>(8));
      cells.back()[0] = 10 * i;
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      std::vector<GlobalAddr> addrs;
      for (const auto& c : cells) {
        addrs.push_back(c.addr());
      }
      const size_t fetched = node.FetchGroup(addrs.data(), addrs.size());
      EXPECT_EQ(fetched, 12u);
      for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(cells[static_cast<size_t>(i)][0], 10 * i);  // no faults now
      }
      EXPECT_EQ(node.counter(Metric::kReadFaults), 0u);
      EXPECT_EQ(node.counter(Metric::kPrefetches), 12u);
      // Idempotent: a second group fetch finds everything present.
      EXPECT_EQ(node.FetchGroup(addrs.data(), addrs.size()), 0u);
    }
    node.Barrier();
  });
}

TEST(Protocol, FetchGroupSplitsFramesAtMaxBatchRecords) {
  // A group larger than one frame: the requests and the ACKs each split into
  // a full kMaxBatchRecords frame plus a frame for the remainder.
  constexpr size_t kCells = 70;
  static_assert(kCells > kMaxBatchRecords && kCells - kMaxBatchRecords > 1);
  DsmConfig cfg = Cfg(2);
  ASSERT_TRUE(cfg.batch_coherence);
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  std::vector<GlobalPtr<int>> cells;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (size_t i = 0; i < kCells; ++i) {
      cells.push_back(SharedAlloc<int>(8));  // 32 B: one minipage each
      cells.back()[0] = static_cast<int>(7 * i + 1);
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      std::vector<GlobalAddr> addrs;
      for (const auto& c : cells) {
        addrs.push_back(c.addr());
      }
      EXPECT_EQ(node.FetchGroup(addrs.data(), addrs.size()), kCells);
      for (size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(cells[i][0], static_cast<int>(7 * i + 1)) << "cell " << i;
      }
      EXPECT_EQ(node.counter(Metric::kReadFaults), 0u);
      // Requests: 64 + 6 records, all bound for host 0. ACKs: the same split
      // per owning shard — host 0 when centralized; when sharded, the 35 ids
      // homed on host 0 go as one frame and the 35 on host 1 as another.
      EXPECT_EQ(node.counter(Metric::kBatchFramesSent), 4u);
      EXPECT_EQ(node.counter(Metric::kBatchRecordsSent), 2 * kCells);
    }
    node.Barrier();
  });
}

TEST(Protocol, FetchGroupWithDuplicatesAndWriterInterference) {
  auto cluster = DsmCluster::Create(Cfg(3));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> a;
  GlobalPtr<int> b;
  (*cluster)->RunOnManager([&](DsmNode&) {
    a = SharedAlloc<int>(4);
    b = SharedAlloc<int>(4);
    a[0] = 1;
    b[0] = 2;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    if (host == 1) {
      // Duplicate addresses into the same minipage are tolerated.
      GlobalAddr addrs[4] = {a.addr(), (a + 1).addr(), b.addr(), (b + 2).addr()};
      (void)node.FetchGroup(addrs, 4);
      EXPECT_EQ(a[0], 1);
      EXPECT_EQ(b[0], 2);
    }
    if (host == 2) {
      a[1] = 99;  // concurrent writer on the same minipage group
    }
    node.Barrier();
    EXPECT_EQ(a[1], 99);
    node.Barrier();
  });
}

TEST(Protocol, PushUpdateDistributesReadCopies) {
  auto cluster = DsmCluster::Create(Cfg(4));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 0;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    if (host == 2) {
      *p = 42;
      node.PushToAll(p.addr());
    }
    node.Barrier();
    // A fresh value must be readable; with the push the copy is already
    // local on every host.
    EXPECT_EQ(*p, 42);
    node.Barrier();
  });
  // After the push, reads hit local read-only copies. A host racing past the
  // barrier before its pushed copy lands may still fault once, so allow a
  // small number — without the push every host would fault.
  uint64_t read_faults_after = 0;
  for (uint16_t h = 0; h < 4; ++h) {
    read_faults_after += (*cluster)->node(h).counter(Metric::kReadFaults);
  }
  EXPECT_LE(read_faults_after, 3u) << "push must have installed copies everywhere";
}

TEST(Protocol, LocksAreExclusiveAndFifo) {
  auto cluster = DsmCluster::Create(Cfg(4));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(2);
    p[0] = 0;
    p[1] = 0;  // max-in-section marker
  });
  constexpr int kPerHost = 25;
  (*cluster)->RunParallel([&](DsmNode& node, HostId) {
    for (int i = 0; i < kPerHost; ++i) {
      node.Lock(3);
      const int in_section = p[1] + 1;
      p[1] = in_section;
      EXPECT_EQ(in_section, 1) << "two holders inside the critical section";
      p[0] = p[0] + 1;
      p[1] = in_section - 1;
      node.Unlock(3);
    }
    node.Barrier();
  });
  (*cluster)->RunOnManager([&](DsmNode&) { EXPECT_EQ(p[0], 4 * kPerHost); });
}

TEST(Protocol, BarriersReusableAcrossGenerations) {
  auto cluster = DsmCluster::Create(Cfg(3));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 0;
  });
  constexpr int kGenerations = 30;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    for (int g = 0; g < kGenerations; ++g) {
      if (host == static_cast<HostId>(g % 3)) {
        *p = g;
      }
      node.Barrier();
      EXPECT_EQ(*p, g);
      node.Barrier();
    }
  });
  for (uint16_t h = 0; h < 3; ++h) {
    EXPECT_EQ((*cluster)->node(h).counter(Metric::kBarriers), 2u * kGenerations);
  }
}

TEST(Protocol, EpochRecordsTrackPerBarrierDeltas) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 0;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.AddWorkUnits(100);
    node.Barrier();  // epoch 0 closes
    if (host == 1) {
      EXPECT_EQ(*p, 0);  // one read fault in epoch 1
    }
    node.AddWorkUnits(50);
    node.Barrier();  // epoch 1 closes
  });
  const auto epochs1 = (*cluster)->node(1).epochs();
  ASSERT_EQ(epochs1.size(), 2u);
  EXPECT_EQ(epochs1[0].delta[Metric::kWorkUnits], 100u);
  EXPECT_EQ(epochs1[0].delta[Metric::kReadFaults], 0u);
  EXPECT_EQ(epochs1[1].delta[Metric::kWorkUnits], 50u);
  EXPECT_EQ(epochs1[1].delta[Metric::kReadFaults], 1u);

  // The epochs partition each host's history: their deltas sum to the
  // registry's final values. Server-thread traffic (barrier releases) may
  // still land after a host's last barrier, so only the entries the model
  // prices must match exactly; no entry may exceed its final value.
  for (uint16_t h = 0; h < 2; ++h) {
    CounterValues sum;
    for (const EpochRecord& r : (*cluster)->node(h).epochs()) {
      sum += r.delta;
    }
    const CounterValues final_values = (*cluster)->node(h).metrics().Counters();
    for (size_t i = 0; i < kNumCounters; ++i) {
      EXPECT_LE(sum.v[i], final_values.v[i]) << kCounterNames[i] << " host " << h;
    }
    for (Metric m : {Metric::kWorkUnits, Metric::kReadFaults, Metric::kWriteFaults,
                     Metric::kReadFaultBytes, Metric::kWriteFaultBytes, Metric::kPrefetches,
                     Metric::kPrefetchBytes, Metric::kLockAcquires, Metric::kBarriers,
                     Metric::kInvalidationsReceived, Metric::kCompetingRequests}) {
      EXPECT_EQ(sum[m], final_values[m])
          << kCounterNames[static_cast<size_t>(m)] << " host " << h;
    }
  }
}

TEST(Protocol, AllocationFailureIsReported) {
  DsmConfig cfg = Cfg(1);
  cfg.object_size = 64 << 10;
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  (*cluster)->RunOnManager([](DsmNode& node) {
    auto ok = node.SharedMalloc(32 << 10);
    EXPECT_TRUE(ok.ok());
    auto too_big = node.SharedMalloc(1 << 20);
    EXPECT_FALSE(too_big.ok());
    EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
    // The DSM stays usable after a failed allocation.
    auto again = node.SharedMalloc(1 << 10);
    EXPECT_TRUE(again.ok());
  });
}

class ServiceModes : public ::testing::TestWithParam<ServiceMode> {};

TEST_P(ServiceModes, ProtocolWorksUnderEachServiceDiscipline) {
  DsmConfig cfg = Cfg(2);
  cfg.service_mode = GetParam();
  cfg.service_period_us = 200;
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 9;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      EXPECT_EQ(*p, 9);
      *p = 10;
    }
    node.Barrier();
    EXPECT_EQ(*p, 10);
    node.Barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, ServiceModes,
                         ::testing::Values(ServiceMode::kBlocking, ServiceMode::kPeriodic),
                         [](const auto& info) {
                           switch (info.param) {
                             case ServiceMode::kBlocking:
                               return "blocking";
                             case ServiceMode::kPeriodic:
                               return "periodic";
                           }
                           return "unknown";
                         });

// Regression: a reply that arrives after the requester has timed out and
// retried carries a stale generation. The requester must (a) discard it —
// not complete the fault with it — and (b) still ACK it, because in ACK mode
// the manager keeps the minipage in service until the outstanding reply is
// acknowledged; swallowing the ACK would wedge that minipage forever.
TEST(Protocol, StaleReplyAfterRetryIsDiscardedAndAcked) {
  DsmConfig cfg = Cfg(2);
  cfg.request_timeout_ms = 300;
  cfg.max_request_retries = 2;
  cfg.sync_timeout_ms = 5000;
  ASSERT_TRUE(cfg.enable_ack) << "the regression targets ACK-mode serialization";

  // Hand-assembled trio so the holder's reply can be delayed in flight.
  cfg.num_hosts = 3;
  InProcTransport inner{3};
  FaultyTransport t0{&inner};
  FaultyTransport t1{&inner};
  FaultyTransport t2{&inner};
  Result<std::unique_ptr<DsmNode>> r0 = DsmNode::Create(cfg, 0, &t0);
  Result<std::unique_ptr<DsmNode>> r1 = DsmNode::Create(cfg, 1, &t1);
  Result<std::unique_ptr<DsmNode>> r2 = DsmNode::Create(cfg, 2, &t2);
  ASSERT_TRUE(r0.ok() && r1.ok() && r2.ok());
  std::unique_ptr<DsmNode> n0 = std::move(*r0);
  std::unique_ptr<DsmNode> n1 = std::move(*r1);
  std::unique_ptr<DsmNode> n2 = std::move(*r2);
  n0->Start();
  n1->Start();
  n2->Start();

  Result<GlobalAddr> addr = n0->SharedMalloc(16 * sizeof(int));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  int* data0 = reinterpret_cast<int*>(n0->AppPtr(*addr));
  for (int i = 0; i < 16; ++i) {
    data0[i] = 900 + i;
  }
  // Host 2 touches first and takes the sole copy, so host 1's read below is
  // a replicating read that host 2 serves.
  FirstTouch(*n2, *addr);

  // Host 2's FIRST read reply to host 1 limps for 450 ms — past the 300 ms
  // request timeout (so host 1 abandons the attempt and re-sends with a
  // fresh generation before the original reply lands) but well inside the
  // retry's own 300 ms window (so the retry itself does not time out while
  // host 2's send thread is parked in the delay). One-shot: the re-served
  // reply travels at full speed.
  t2.DelaySends(1, MsgType::kReadReply, 450 * 1000, /*count=*/1);
  ASSERT_TRUE(n1->OnFault(addr->view, addr->offset, /*is_write=*/false));

  EXPECT_EQ(n1->counter(Metric::kTimeoutRetries), 1u);
  EXPECT_EQ(n1->counter(Metric::kStaleReplies), 1u)
      << "the late reply must be discarded by generation";
  const int* data1 = reinterpret_cast<const int*>(n1->AppPtr(*addr));
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(data1[i], 900 + i) << "index " << i;
  }

  // The discarded reply was still ACKed: the manager's per-minipage
  // transaction is closed, so a fresh operation on the SAME minipage
  // completes promptly instead of queueing behind a wedged service.
  const uint64_t t_write = MonotonicNowNs();
  ASSERT_TRUE(n1->OnFault(addr->view, addr->offset, /*is_write=*/true));
  const uint64_t write_ms = (MonotonicNowNs() - t_write) / 1000000;
  EXPECT_LT(write_ms, cfg.request_timeout_ms) << "minipage service left open";
  EXPECT_EQ(n1->counter(Metric::kTimeoutRetries), 1u) << "the follow-up write must not retry";
  EXPECT_TRUE(n1->health().ok());
  EXPECT_TRUE(n0->health().ok());
  EXPECT_TRUE(n2->health().ok());

  n0->BeginShutdown();
  n1->BeginShutdown();
  n2->BeginShutdown();
  n2->Stop();
  n1->Stop();
  n0->Stop();
}

// Regression (fault-path degradation): a protection change failing INSIDE
// fault service — on the grant install, the one protect whose failure is
// recoverable — must degrade that single access to kNotFound, the same
// policy as sole-copy host death, instead of aborting the cluster. The
// requester renounces the grant (abort-flagged ACK) so the directory drops
// it from the copyset and the minipage stays serveable from the old holder.
TEST(Protocol, GrantInstallFailureDegradesAccessNotCluster) {
  auto cluster = DsmCluster::Create(Cfg(3));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> ctl;
  GlobalPtr<int> victim;
  (*cluster)->RunOnManager([&](DsmNode&) {
    ctl = SharedAlloc<int>(4);
    victim = SharedAlloc<int>(4);
    ctl[0] = 1;
    victim[0] = 2;
  });
  DsmNode& n1 = (*cluster)->node(1);
  const GlobalAddr va = victim.addr();
  // Host 2 touches first and takes the sole copy, so host 1's read below is
  // a replicating read: the old holder keeps its copy.
  FirstTouch((*cluster)->node(2), va);

  {
    // skip=1 lets the holder's serve-side downgrade of its own copy pass;
    // times=1 then fails exactly one protect — the requester's install.
    FailpointAction fail;
    fail.kind = FailpointAction::Kind::kReturn;
    fail.skip = 1;
    fail.max_hits = 1;
    FailpointScope scope("os.mapping.protect", fail);
    const Status st = n1.FaultService(va.view, va.offset, /*is_write=*/false);
    ASSERT_FALSE(st.ok()) << "injected install failure must fail the access";
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
    EXPECT_EQ(FailpointRegistry::Instance().hits("os.mapping.protect"), 1u)
        << "the injection was meant to hit the grant install exactly once";
  }

  // The old holder kept its copy, so the directory never emptied: nothing
  // was declared lost cluster-wide, and the SAME access succeeds once the
  // (transient, one-shot) failure clears.
  EXPECT_EQ((*cluster)->TotalCounter(Metric::kMinipagesLost), 0u);
  const Status again = n1.FaultService(va.view, va.offset, /*is_write=*/false);
  ASSERT_TRUE(again.ok()) << again.ToString();
  EXPECT_EQ(*reinterpret_cast<const int*>(n1.AppPtr(va)), 2);

  // The degradation was per-access: other minipages were never affected,
  // and both hosts remain healthy — no cluster abort, no wedged service.
  const Status ctl_read = n1.FaultService(ctl.addr().view, ctl.addr().offset,
                                          /*is_write=*/false);
  ASSERT_TRUE(ctl_read.ok()) << ctl_read.ToString();
  EXPECT_EQ(*reinterpret_cast<const int*>(n1.AppPtr(ctl.addr())), 1);
  EXPECT_TRUE(n1.health().ok());
  EXPECT_TRUE((*cluster)->node(0).health().ok());
}

// A first-touch read is a write transfer: the old holder gives its copy up
// before the grant lands. So when the grant install fails, no copy is left:
// the access fails kNotFound and the minipage is lost, exactly as for a
// failed write-transfer install. The rest of the cluster carries on.
TEST(Protocol, GrantInstallFailureOnMigratingReadLosesMinipage) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> ctl;
  GlobalPtr<int> victim;
  (*cluster)->RunOnManager([&](DsmNode&) {
    ctl = SharedAlloc<int>(4);
    victim = SharedAlloc<int>(4);
    ctl[0] = 1;
    victim[0] = 2;
  });
  DsmNode& n1 = (*cluster)->node(1);
  const GlobalAddr va = victim.addr();
  {
    // skip=1 lets the holder's relinquish of its copy pass; times=1 then
    // fails exactly one protect — the requester's install.
    FailpointAction fail;
    fail.kind = FailpointAction::Kind::kReturn;
    fail.skip = 1;
    fail.max_hits = 1;
    FailpointScope scope("os.mapping.protect", fail);
    const Status st = n1.FaultService(va.view, va.offset, /*is_write=*/false);
    ASSERT_FALSE(st.ok()) << "injected install failure must fail the access";
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
    EXPECT_EQ(FailpointRegistry::Instance().hits("os.mapping.protect"), 1u);
  }
  // The renouncing ACK left host 1 before the verdict reached the faulting
  // thread, so the shard declares the loss before it answers this retry:
  // once the retry fails, the loss is counted.
  const Status again = n1.FaultService(va.view, va.offset, /*is_write=*/false);
  EXPECT_EQ(again.code(), StatusCode::kNotFound) << again.ToString();
  EXPECT_EQ((*cluster)->TotalCounter(Metric::kFirstTouchMigrations), 1u);
  EXPECT_EQ((*cluster)->TotalCounter(Metric::kMinipagesLost), 1u);

  const Status ctl_read = n1.FaultService(ctl.addr().view, ctl.addr().offset,
                                          /*is_write=*/false);
  ASSERT_TRUE(ctl_read.ok()) << ctl_read.ToString();
  EXPECT_EQ(*reinterpret_cast<const int*>(n1.AppPtr(ctl.addr())), 1);
  EXPECT_TRUE(n1.health().ok());
  EXPECT_TRUE((*cluster)->node(0).health().ok());
}

TEST(Protocol, SequentialConsistencyStress) {
  // Dekker-style litmus: two hosts set their flag then read the other's.
  // Under sequential consistency at least one host must observe the other's
  // flag in every round.
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> flag0;
  GlobalPtr<int> flag1;
  (*cluster)->RunOnManager([&](DsmNode&) {
    flag0 = SharedAlloc<int>(1);
    flag1 = SharedAlloc<int>(1);
  });
  constexpr int kRounds = 30;
  std::atomic<int> both_zero{0};
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    for (int r = 0; r < kRounds; ++r) {
      (host == 0 ? flag0 : flag1)[0] = 0;
      node.Barrier();
      if (host == 0) {
        *flag0 = 1;
        if (*flag1 == 0 && *flag0 == 0) {
          both_zero.fetch_add(1);
        }
      } else {
        *flag1 = 1;
        if (*flag0 == 0 && *flag1 == 0) {
          both_zero.fetch_add(1);
        }
      }
      node.Barrier();
      EXPECT_EQ(*flag0, 1);
      EXPECT_EQ(*flag1, 1);
      node.Barrier();
    }
  });
  EXPECT_EQ(both_zero.load(), 0) << "a host failed to observe its own write";
}

TEST(Protocol, LivenessReportIsSafeWhileDirectoryGrows) {
  // The report runs off the server thread (app threads on a liveness
  // failure, the transport's peer-down callback) while the server thread
  // grows the directory. Host 1 allocates and write-faults fresh minipages,
  // so host 0's server keeps resizing its entry table under a side thread
  // that keeps reporting.
  constexpr int kCells = 2000;
  DsmConfig cfg = Cfg(2);
  cfg.num_views = 32;  // 32 B minipages, 32 to a vpage
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  DsmNode& host0 = (*cluster)->node(0);
  std::atomic<bool> done{false};
  uint64_t reports = 0;
  std::thread reporter([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string report = host0.LivenessReport();
      ASSERT_NE(report.find(" dir{minipages="), std::string::npos) << report;
      ++reports;
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      for (int i = 0; i < kCells; ++i) {
        GlobalPtr<int> cell = SharedAlloc<int>(8);  // 32 B: one minipage
        cell[0] = i;                                // write fault
        EXPECT_EQ(cell[0], i);
      }
      EXPECT_GE(node.counter(Metric::kWriteFaults), static_cast<uint64_t>(kCells));
    }
    node.Barrier();
  });
  done.store(true, std::memory_order_release);
  reporter.join();
  EXPECT_GT(reports, 0u);
  // Host 0's directory bootstraps an entry for every minipage it homes when
  // host 1's write fault first reaches it: all of them when centralized, about
  // half when sharded over two hosts.
  const size_t homed = cfg.manager_policy == ManagerPolicy::kSharded ? kCells / 4 : kCells;
  EXPECT_GE(host0.directory()->gauges().entries.load(), homed);
}

TEST(Protocol, ManyMinipagesManyHosts) {
  // Broad sweep: 4 hosts hammering 64 independent counters.
  auto cluster = DsmCluster::Create(Cfg(4));
  ASSERT_TRUE(cluster.ok());
  std::vector<GlobalPtr<int>> counters;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < 64; ++i) {
      counters.push_back(SharedAlloc<int>(1));
      *counters.back() = 0;
    }
  });
  constexpr int kRounds = 8;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < kRounds; ++r) {
      // Each round, each host owns a rotating disjoint quarter.
      for (int i = 0; i < 16; ++i) {
        const int idx = ((host + r) % 4) * 16 + i;
        *counters[idx] = *counters[idx] + 1;
      }
      node.Barrier();
    }
  });
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(*counters[i], kRounds) << "counter " << i;
    }
  });
}

TEST(Protocol, MetricsMoveAsProtocolRuns) {
  // The fault -> fetch -> grant pipeline must leave tracks in the metric
  // snapshot: host fault counters, per-node fault-latency histograms, the
  // manager's service counters, and the SIGSEGV dispatcher itself.
  SetMetricsEnabled(true);
  const uint64_t dispatched_before = FaultHandler::Instance().faults_dispatched();
  auto cluster = DsmCluster::Create(Cfg(3));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(16);
    p[0] = 7;
  });
  // Host 2 touches first and takes the sole copy, so host 1's read below
  // replicates and its write has a copy to invalidate.
  FirstTouch((*cluster)->node(2), p.addr());
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    EXPECT_EQ(p[0], 7);   // read faults on hosts 0 and 1
    if (host == 1) {
      p[1] = 11;          // write fault: invalidation round + upgrade
    }
    node.Barrier();
  });

  const MetricsSnapshot s = (*cluster)->SnapshotMetrics();
  EXPECT_GE(s.counters.at("host.read_faults"), 2u);
  EXPECT_GE(s.counters.at("host.write_faults"), 1u);
  EXPECT_GE(s.counters.at("mgr.requests_served"), 3u);
  EXPECT_GE(s.counters.at("mgr.mpt_lookups"), 3u);
  EXPECT_GE(s.counters.at("mgr.invalidation_rounds"), 1u);
  EXPECT_GE(s.counters.at("host.barriers"), 6u);
  // Every recorded fault latency corresponds to a counted fault.
  const HistogramSnapshot& rf = s.histograms.at("dsm.read_fault_ns");
  EXPECT_GE(rf.count, 2u);
  EXPECT_GT(rf.min, 0u);
  EXPECT_GE(s.histograms.at("dsm.write_fault_ns").count, 1u);
  EXPECT_GE(s.histograms.at("dsm.barrier_ns").count, 6u);
  // SIGSEGV entry instrumentation (process-global registry).
  EXPECT_GT(FaultHandler::Instance().faults_dispatched(), dispatched_before);
  EXPECT_GE(s.histograms.at("fault.service_ns").count, 3u);
  // The per-host counter reads agree with the flat snapshot.
  EXPECT_EQ(s.counters.at("host.read_faults"),
            (*cluster)->TotalCounter(Metric::kReadFaults));
  // And the emitter produces something a JSON consumer will accept.
  const std::string json = (*cluster)->SnapshotMetrics().DumpJson();
  EXPECT_NE(json.find("\"host.read_faults\""), std::string::npos);
  EXPECT_NE(json.find("\"dsm.read_fault_ns\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Protocol, CoalescedCountersAreExported) {
  // A batched invalidation round routes its fan-out through the coalescer;
  // the datagrams and records it sends show up in the cluster snapshot.
  DsmConfig cfg = Cfg(4);
  cfg.batch_coherence = true;
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(16);
    p[0] = 1;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    EXPECT_EQ(p[0], 1);  // every host joins the copyset
    node.Barrier();
    if (host == 1) {
      p[0] = 2;  // invalidates the other three copies
    }
    node.Barrier();
  });
  const MetricsSnapshot s = (*cluster)->SnapshotMetrics();
  EXPECT_GT(s.counters.at("host.coalesced_msgs_sent"), 0u);
  EXPECT_GT(s.counters.at("host.coalesced_records"), 0u);
  EXPECT_GE(s.counters.at("mgr.invalidation_rounds"), 1u);
}

}  // namespace
}  // namespace millipage
