// Deterministic-schedule protocol simulation (src/check/): reproducibility,
// a seeded schedule sweep checked against the SWMR + coherence invariants,
// and an injected protocol bug that the checker must catch.
//
// Replay workflow: a sweep failure prints its seed; re-run just that
// schedule with
//   MILLIPAGE_SIM_SEED=<seed> ./sim_test --gtest_filter='*ReplayEnvSeed*'

#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/history_checker.h"
#include "src/check/sim_harness.h"
#include "src/common/failpoint.h"

namespace millipage {
namespace {

// MILLIPAGE_MANAGER_POLICY=sharded re-runs every simulation with the
// directory sharded across hosts (the CI matrix sets it); default is the
// centralized manager.
ManagerPolicy PolicyFromEnv() {
  const char* env = std::getenv("MILLIPAGE_MANAGER_POLICY");
  return (env != nullptr && std::string(env) == "sharded") ? ManagerPolicy::kSharded
                                                           : ManagerPolicy::kCentralized;
}

SimWorkload SweepWorkload() {
  SimWorkload w;
  w.hosts = 3;
  w.cells = 4;
  w.rounds = 3;
  w.ops_per_round = 4;
  w.use_locks = true;
  w.policy = PolicyFromEnv();
  // MILLIPAGE_FAULT_BACKEND=uffd re-runs every simulation with the views
  // wired to the userfaultfd backend (the CI backend matrix sets it).
  w.backend = FaultBackendFromEnv();
  return w;
}

// Runs one seed and verifies every invariant — including shard affinity when
// the workload shards the directory — printing the seed and the minimal
// violating history prefix on failure.
void RunAndCheck(uint64_t seed, const SimWorkload& w) {
  SimResult r = RunSim(seed, w);
  ASSERT_TRUE(r.status.ok()) << "seed " << seed << ": " << r.status.ToString() << "\n"
                             << r.FormattedHistory();
  ASSERT_GT(r.history.size(), 0u) << "seed " << seed << " recorded no events";
  const CheckReport report =
      CheckHistory(r.history, w.hosts, w.policy == ManagerPolicy::kSharded);
  ASSERT_TRUE(report.ok) << "seed " << seed << ":\n"
                         << report.FormatViolation(r.history)
                         << "\nreplay: MILLIPAGE_SIM_SEED=" << seed
                         << " ./sim_test --gtest_filter='*ReplayEnvSeed*'";
}

// The reproducibility contract: the same seed produces a byte-for-byte
// identical event history, run after run.
TEST(SimDeterminism, SameSeedSameHistory) {
  const SimWorkload w = SweepWorkload();
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    SimResult a = RunSim(seed, w);
    SimResult b = RunSim(seed, w);
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    ASSERT_GT(a.history.size(), 0u);
    EXPECT_EQ(a.FormattedHistory(), b.FormattedHistory()) << "seed " << seed;
  }
}

// Different seeds should explore different schedules (sanity check that the
// scheduler's randomness actually reaches delivery order).
TEST(SimDeterminism, DifferentSeedsDiverge) {
  const SimWorkload w = SweepWorkload();
  const SimResult a = RunSim(11, w);
  const SimResult b = RunSim(12, w);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_NE(a.FormattedHistory(), b.FormattedHistory());
}

// The schedule sweep: >= 50 distinct seeds, every history checked against
// the SWMR invariants and the coherence oracle.
TEST(SimSweep, FiftySeedsHoldInvariants) {
  const SimWorkload w = SweepWorkload();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    RunAndCheck(seed, w);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// A second sweep over a heavier write-contention mix (more hosts, fewer
// cells — every cell is fought over).
TEST(SimSweep, ContendedCellsHoldInvariants) {
  SimWorkload w;
  w.hosts = 4;
  w.cells = 2;
  w.rounds = 2;
  w.ops_per_round = 3;
  w.use_locks = false;
  for (uint64_t seed = 1000; seed < 1010; ++seed) {
    RunAndCheck(seed, w);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// The same sweep with the directory sharded across hosts (explicitly, not
// via the environment): every id is serviced by the host it hashes to, and
// the checker additionally verifies shard affinity on every manager event.
TEST(SimSweepSharded, FiftySeedsHoldInvariants) {
  SimWorkload w = SweepWorkload();
  w.policy = ManagerPolicy::kSharded;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    RunAndCheck(seed, w);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(SimSweepSharded, ContendedCellsHoldInvariants) {
  SimWorkload w;
  w.hosts = 4;
  w.cells = 2;
  w.rounds = 2;
  w.ops_per_round = 3;
  w.use_locks = false;
  w.policy = ManagerPolicy::kSharded;
  for (uint64_t seed = 1000; seed < 1010; ++seed) {
    RunAndCheck(seed, w);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Determinism must hold under sharding too: the extra routing hop is part of
// the scheduled message stream, not a source of nondeterminism.
TEST(SimSweepSharded, SameSeedSameHistory) {
  SimWorkload w = SweepWorkload();
  w.policy = ManagerPolicy::kSharded;
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    SimResult a = RunSim(seed, w);
    SimResult b = RunSim(seed, w);
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    ASSERT_GT(a.history.size(), 0u);
    EXPECT_EQ(a.FormattedHistory(), b.FormattedHistory()) << "seed " << seed;
  }
  // An 8-host kill schedule whose recovery answers a survivor's own queued
  // request with a lost verdict. That survivor's worker must stay parked
  // until the driver's step ends; if it woke mid-step it would race the
  // remaining survivors' recovery and the seed would replay as several
  // histories. Repeat it to catch that.
  SimWorkload kill = w;
  kill.hosts = 8;
  kill.cells = 4;
  kill.rounds = 2;
  kill.ops_per_round = 3;
  kill.kill_one_host = true;
  const SimResult first = RunSim(18, kill);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(first.killed);
  for (int run = 1; run < 10; ++run) {
    const SimResult again = RunSim(18, kill);
    ASSERT_TRUE(again.status.ok()) << again.status.ToString();
    EXPECT_EQ(first.steps, again.steps) << "run " << run;
    EXPECT_EQ(first.FormattedHistory(), again.FormattedHistory()) << "run " << run;
  }
}

// Exact replay of one schedule, seed taken from the environment — the tool a
// failing sweep points at.
TEST(SimSweep, ReplayEnvSeed) {
  const char* env = std::getenv("MILLIPAGE_SIM_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set MILLIPAGE_SIM_SEED=<seed> to replay one schedule";
  }
  RunAndCheck(std::strtoull(env, nullptr, 0), SweepWorkload());
}

// Inject a real protocol bug — the manager skips one invalidation during a
// write's invalidation round, leaving a stale readable replica — and require
// the checker to catch it and name the surviving reader.
TEST(SimInjectedBug, SkippedInvalidationIsCaught) {
  // Script: every host reads cell 0 (three read copies), then host 2 writes
  // it — a write that must invalidate hosts 0 and 1. The failpoint swallows
  // the first invalidation of that round.
  SimWorkload w;
  w.hosts = 3;
  w.cells = 1;
  std::vector<std::vector<SimOp>> script(w.hosts);
  script[0] = {{SimOpKind::kAlloc, 0}, {SimOpKind::kBarrier, 0}, {SimOpKind::kRead, 0},
               {SimOpKind::kBarrier, 0}, {SimOpKind::kBarrier, 0}};
  script[1] = {{SimOpKind::kBarrier, 0}, {SimOpKind::kRead, 0}, {SimOpKind::kBarrier, 0},
               {SimOpKind::kBarrier, 0}};
  script[2] = {{SimOpKind::kBarrier, 0}, {SimOpKind::kRead, 0}, {SimOpKind::kBarrier, 0},
               {SimOpKind::kWrite, 0}, {SimOpKind::kBarrier, 0}};

  FailpointAction skip;
  skip.kind = FailpointAction::Kind::kReturn;
  skip.max_hits = 1;
  FailpointScope fp("dsm.mgr.skip_invalidate", skip);

  const SimResult r = RunScript(99, w, script);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const CheckReport report = CheckSwmr(r.history, w.hosts);
  ASSERT_FALSE(report.ok) << "checker missed the injected skipped invalidation\n"
                          << r.FormattedHistory();
  EXPECT_NE(report.message.find("SWMR"), std::string::npos) << report.message;
  // The violating prefix must be a genuine prefix — the minimal history a
  // human replays to see the bug.
  EXPECT_LT(report.violating_index, r.history.size());
  const std::string violation = report.FormatViolation(r.history);
  EXPECT_NE(violation.find("minimal violating history"), std::string::npos);
  printf("checker caught the injected bug:\n%s", violation.c_str());
}

// Same schedule without the failpoint: clean — the bug, not the workload,
// trips the checker.
TEST(SimInjectedBug, SameScheduleCleanWithoutFailpoint) {
  SimWorkload w;
  w.hosts = 3;
  w.cells = 1;
  std::vector<std::vector<SimOp>> script(w.hosts);
  script[0] = {{SimOpKind::kAlloc, 0}, {SimOpKind::kBarrier, 0}, {SimOpKind::kRead, 0},
               {SimOpKind::kBarrier, 0}, {SimOpKind::kBarrier, 0}};
  script[1] = {{SimOpKind::kBarrier, 0}, {SimOpKind::kRead, 0}, {SimOpKind::kBarrier, 0},
               {SimOpKind::kBarrier, 0}};
  script[2] = {{SimOpKind::kBarrier, 0}, {SimOpKind::kRead, 0}, {SimOpKind::kBarrier, 0},
               {SimOpKind::kWrite, 0}, {SimOpKind::kBarrier, 0}};
  const SimResult r = RunScript(99, w, script);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  const CheckReport report = CheckHistory(r.history, w.hosts);
  EXPECT_TRUE(report.ok) << report.FormatViolation(r.history);
}

// First-touch race: every host first-touches the same fresh minipages at
// once while host 0, their allocator and sole holder, writes them. Whichever
// read reaches a minipage's shard first takes the sole copy (first-touch
// migration); the other reads replicate from the new owner or queue behind
// host 0's write, which then has to take the copy back. A final round of
// reads checks that everyone sees host 0's last values.
void SweepFirstTouchRace(ManagerPolicy policy) {
  SimWorkload w;
  w.hosts = 4;
  w.cells = 3;
  w.use_locks = false;
  w.policy = policy;
  w.backend = FaultBackendFromEnv();
  std::vector<std::vector<SimOp>> script(w.hosts);
  for (uint16_t h = 0; h < w.hosts; ++h) {
    if (h == 0) {
      script[h].push_back({SimOpKind::kAlloc, 0});
    }
    script[h].push_back({SimOpKind::kBarrier, 0});
    for (uint32_t c = 0; c < w.cells; ++c) {
      script[h].push_back({h == 0 ? SimOpKind::kWrite : SimOpKind::kRead, c});
    }
    script[h].push_back({SimOpKind::kBarrier, 0});
    for (uint32_t c = 0; c < w.cells; ++c) {
      script[h].push_back({SimOpKind::kRead, c});
    }
    script[h].push_back({SimOpKind::kBarrier, 0});
  }
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const SimResult r = RunScript(seed, w, script);
    ASSERT_TRUE(r.status.ok()) << "seed " << seed << ": " << r.status.ToString() << "\n"
                               << r.FormattedHistory();
    const CheckReport report =
        CheckHistory(r.history, w.hosts, policy == ManagerPolicy::kSharded);
    ASSERT_TRUE(report.ok) << "seed " << seed << ":\n" << report.FormatViolation(r.history);
    // Host 0 writes a cell it still holds without a fault, so each cell is
    // fresh until its first reader arrives, whatever the schedule.
    EXPECT_EQ(r.counters[Metric::kFirstTouchMigrations], w.cells) << "seed " << seed;
  }
}

TEST(SimFirstTouch, RaceWithAllocatorWriteHoldsInvariants) {
  SweepFirstTouchRace(ManagerPolicy::kCentralized);
}

TEST(SimFirstTouch, RaceWithAllocatorWriteHoldsInvariantsSharded) {
  SweepFirstTouchRace(ManagerPolicy::kSharded);
}

// ---- Host-death recovery sweeps --------------------------------------------
//
// Every kill sweep runs under both manager policies. Sharded, the dead host's
// shard fails over to a survivor; centralized, host 0's directory repairs
// copysets, locks and the barrier alone, and no survey ever runs.

class SimKillHost : public ::testing::TestWithParam<ManagerPolicy> {
 protected:
  ManagerPolicy policy() const { return GetParam(); }

  SimWorkload KillWorkload() const {
    SimWorkload w = SweepWorkload();
    w.policy = policy();
    w.kill_one_host = true;
    return w;
  }
};

// One seed with a host killed mid-run: the survivors must finish their
// scripts (per-minipage loss is a skip, never a cluster abort), the kill must
// have hit a non-zero host, and the recorded history must pass every
// invariant — including epoch monotonicity and, when sharded, the epoch-aware
// shard affinity that legitimizes adopted-shard service.
void RunKillAndCheck(uint64_t seed, const SimWorkload& w) {
  SimResult r = RunSim(seed, w);
  ASSERT_TRUE(r.status.ok()) << "seed " << seed << ": " << r.status.ToString() << "\n"
                             << r.FormattedHistory();
  ASSERT_TRUE(r.killed) << "seed " << seed << ": the kill never fired";
  ASSERT_NE(r.killed_host, 0) << "seed " << seed << " killed the allocator host";
  const CheckReport report =
      CheckHistory(r.history, w.hosts, w.policy == ManagerPolicy::kSharded);
  ASSERT_TRUE(report.ok) << "seed " << seed << " (killed host " << r.killed_host
                         << "):\n"
                         << report.FormatViolation(r.history);
}

// The headline chaos sweep: >= 50 seeds, each killing one non-zero host at a
// seeded point; survivors complete checker-clean.
TEST_P(SimKillHost, FiftySeedsSurvivorsHoldInvariants) {
  const SimWorkload w = KillWorkload();
  uint64_t runs_with_loss = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    RunKillAndCheck(seed, w);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    runs_with_loss += RunSim(seed, w).minipages_lost > 0 ? 1 : 0;
  }
  // Sole-copy loss should occur in some (not all) schedules — it is the
  // per-minipage degraded path, and the sweep must cover both outcomes.
  printf("[sim] kill sweep: %llu/50 runs lost at least one minipage\n",
         (unsigned long long)runs_with_loss);
}

// Host death under heavier write contention (fewer cells, no locks).
TEST_P(SimKillHost, ContendedCellsSurvivorsHoldInvariants) {
  SimWorkload w;
  w.hosts = 4;
  w.cells = 2;
  w.rounds = 2;
  w.ops_per_round = 3;
  w.use_locks = false;
  w.policy = policy();
  w.kill_one_host = true;
  for (uint64_t seed = 2000; seed < 2020; ++seed) {
    RunKillAndCheck(seed, w);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Centralized schedules in which repair re-issued a fetch whose data had
// already reached the requester before its source died. Each once broke
// SWMR: the re-issued copy's stale ACK closed another host's write round
// (seed 27) or the requester's own next write (seed 574), or the copy was
// installed after an invalidation had revoked it (seed 563).
TEST_P(SimKillHost, ReissuedFetchOfDeliveredDataHoldsInvariants) {
  struct Case {
    uint16_t hosts;
    uint32_t cells;
    bool locks;
    uint64_t seed;
  };
  for (const Case& c : {Case{4, 2, false, 27}, Case{4, 2, false, 574}, Case{8, 4, true, 563}}) {
    SimWorkload w = KillWorkload();
    w.hosts = c.hosts;
    w.cells = c.cells;
    w.use_locks = c.locks;
    RunKillAndCheck(c.seed, w);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Exact replay of one kill schedule, seed taken from the environment — the
// tool a failing kill sweep points at.
TEST_P(SimKillHost, ReplayEnvSeed) {
  const char* env = std::getenv("MILLIPAGE_SIM_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set MILLIPAGE_SIM_SEED=<seed> to replay a kill schedule";
  }
  const uint64_t seed = std::strtoull(env, nullptr, 10);
  const SimResult r = RunSim(seed, KillWorkload());
  printf("[sim] kill replay seed=%llu status=%s killed_host=%u\n%s",
         (unsigned long long)seed, r.status.ToString().c_str(), r.killed_host,
         r.FormattedHistory().c_str());
  RunKillAndCheck(seed, KillWorkload());
}

// Determinism must survive the kill: detector injection, epoch bumps, kicked
// re-sends and copyset rebuilds are all part of the scheduled stream.
TEST_P(SimKillHost, SameSeedSameHistory) {
  const SimWorkload w = KillWorkload();
  for (uint64_t seed : {3ull, 17ull, 29ull}) {
    SimResult a = RunSim(seed, w);
    SimResult b = RunSim(seed, w);
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    ASSERT_TRUE(a.killed);
    EXPECT_EQ(a.killed_host, b.killed_host) << "seed " << seed;
    EXPECT_EQ(a.FormattedHistory(), b.FormattedHistory()) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SimKillHost,
                         ::testing::Values(ManagerPolicy::kCentralized,
                                           ManagerPolicy::kSharded),
                         [](const ::testing::TestParamInfo<ManagerPolicy>& info) {
                           return info.param == ManagerPolicy::kSharded ? "Sharded"
                                                                        : "Centralized";
                         });

// Unit tests for the checker itself on hand-built histories.
TEST(HistoryChecker, FlagsTwoWriters) {
  std::vector<TraceEvent> h(2);
  h[0] = {0, TraceEventKind::kProtSet, 0, 7, 0, 2 /*ReadWrite*/, 0};
  h[1] = {1, TraceEventKind::kProtSet, 1, 7, 0, 2 /*ReadWrite*/, 0};
  const CheckReport r = CheckSwmr(h, 2);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.violating_index, 1u);
}

TEST(HistoryChecker, FlagsSurvivingReader) {
  std::vector<TraceEvent> h(2);
  h[0] = {0, TraceEventKind::kProtSet, 1, 3, 0, 1 /*ReadOnly*/, 0};
  h[1] = {1, TraceEventKind::kProtSet, 0, 3, 0, 2 /*ReadWrite*/, 0};
  const CheckReport r = CheckSwmr(h, 2);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("reader not invalidated"), std::string::npos);
}

TEST(HistoryChecker, AcceptsHandoff) {
  std::vector<TraceEvent> h(3);
  h[0] = {0, TraceEventKind::kProtSet, 0, 3, 0, 2 /*RW*/, 0};
  h[1] = {1, TraceEventKind::kProtSet, 0, 3, 0, 0 /*None*/, 0};
  h[2] = {2, TraceEventKind::kProtSet, 1, 3, 0, 2 /*RW*/, 0};
  EXPECT_TRUE(CheckSwmr(h, 2).ok);
}

TEST(HistoryChecker, FlagsBarrierEpochSkip) {
  std::vector<TraceEvent> h(2);
  h[0] = {0, TraceEventKind::kBarrierRelease, 0, ~0u, 0, 0, 0};
  h[1] = {1, TraceEventKind::kBarrierRelease, 0, ~0u, 0, 2, 0};  // skipped 1
  const CheckReport r = CheckBarrierEpochs(h, 1);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.violating_index, 1u);
}

TEST(HistoryChecker, FlagsDoubleLockGrant) {
  std::vector<TraceEvent> h(2);
  h[0] = {0, TraceEventKind::kLockGrant, 0, 5, 0, 0, 0};
  h[1] = {1, TraceEventKind::kLockGrant, 0, 5, 0, 1, 0};
  ASSERT_FALSE(CheckLockExclusivity(h).ok);
}

TEST(HistoryChecker, FlagsWrongShard) {
  // Minipage 5 with 4 hosts hashes to shard 1; a grant served by host 2 is
  // an affinity violation, one served by host 1 is fine.
  std::vector<TraceEvent> h(1);
  h[0] = {0, TraceEventKind::kMgrReadGrant, 2, 5, 0, 0, 0};
  const CheckReport bad = CheckShardAffinity(h, 4);
  ASSERT_FALSE(bad.ok);
  EXPECT_NE(bad.message.find("shard"), std::string::npos) << bad.message;
  h[0].host = 1;
  EXPECT_TRUE(CheckShardAffinity(h, 4).ok);
}

// kEpochBump trace encoding: arg1 = new epoch, arg2 = newly-dead host id + 1
// (one event per death; arg2 = 0 when no new host died).
TEST(HistoryChecker, FlagsEpochRegression) {
  std::vector<TraceEvent> h(2);
  h[0] = {0, TraceEventKind::kEpochBump, 0, ~0u, 0, 2, 3};  // host 2 died
  h[1] = {1, TraceEventKind::kEpochBump, 0, ~0u, 0, 1, 3};  // epoch went back
  const CheckReport r = CheckEpochMonotonicity(h, 3);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("backwards"), std::string::npos) << r.message;
}

// The old cumulative-mask encoding could express a shrinking dead set; the
// per-death encoding cannot, so the grow-only invariant is now "each host
// announces each death at most once".
TEST(HistoryChecker, FlagsDoubleDeathAnnouncement) {
  std::vector<TraceEvent> h(2);
  h[0] = {0, TraceEventKind::kEpochBump, 0, ~0u, 0, 1, 3};  // host 2 died
  h[1] = {1, TraceEventKind::kEpochBump, 0, ~0u, 0, 2, 3};  // ...died again?
  const CheckReport r = CheckEpochMonotonicity(h, 3);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("dead twice"), std::string::npos) << r.message;
}

TEST(HistoryChecker, FlagsPreDeathGrantHonoredAfterBump) {
  // Shard host 1 grants minipage 3 to host 0 at epoch 0; host 0 then bumps to
  // epoch 1 (host 1 died) but still completes the fault against that grant.
  std::vector<TraceEvent> h(3);
  h[0] = {0, TraceEventKind::kMgrReadGrant, 1, 3, 0, 0, 0};
  h[1] = {1, TraceEventKind::kEpochBump, 0, ~0u, 0, 1, 2};  // host 1 died
  h[2] = {2, TraceEventKind::kFaultEnd, 0, 3, 0, 0, 0};
  const CheckReport r = CheckEpochMonotonicity(h, 2);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("pre-death grant"), std::string::npos) << r.message;
  // The same completion is clean when the grant was traced after the
  // requester's own bump: that is what a kicked retry produces.
  std::vector<TraceEvent> ok(4);
  ok[0] = {0, TraceEventKind::kEpochBump, 0, ~0u, 0, 1, 3};  // host 2 died
  ok[1] = {1, TraceEventKind::kEpochBump, 1, ~0u, 0, 1, 3};
  ok[2] = {2, TraceEventKind::kMgrReadGrant, 1, 3, 0, 0, 0};
  ok[3] = {3, TraceEventKind::kFaultEnd, 0, 3, 0, 0, 0};
  EXPECT_TRUE(CheckEpochMonotonicity(ok, 3).ok);
}

TEST(HistoryChecker, FlagsSelfDeclaredDeath) {
  std::vector<TraceEvent> h(1);
  h[0] = {0, TraceEventKind::kEpochBump, 1, ~0u, 0, 1, 2};  // host 1 says "1 is dead"
  const CheckReport r = CheckEpochMonotonicity(h, 2);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("itself"), std::string::npos) << r.message;
}

TEST(HistoryChecker, ShardAffinityFollowsFailover) {
  // Minipage 5 with 4 hosts homes on shard 1. After a bump declaring host 1
  // dead, the linear-probe successor (host 2) is the legitimate server — and
  // host 1's old slot is no longer legitimate.
  std::vector<TraceEvent> pre(1);
  pre[0] = {0, TraceEventKind::kMgrReadGrant, 2, 5, 0, 0, 0};
  ASSERT_FALSE(CheckShardAffinity(pre, 4).ok);
  std::vector<TraceEvent> post(2);
  post[0] = {0, TraceEventKind::kEpochBump, 2, ~0u, 0, 1, 2};  // host 1 died
  post[1] = {1, TraceEventKind::kMgrReadGrant, 2, 5, 0, 0, 0};
  EXPECT_TRUE(CheckShardAffinity(post, 4).ok);
  post[1].host = 1;  // the dead shard serving after the bump is a violation
  EXPECT_FALSE(CheckShardAffinity(post, 4).ok);
}

TEST(HistoryChecker, FlagsStaleRead) {
  std::vector<TraceEvent> h(3);
  h[0] = {0, TraceEventKind::kAppWrite, 0, ~0u, 0x10, 0xaa, 0};
  h[1] = {1, TraceEventKind::kAppWrite, 1, ~0u, 0x10, 0xbb, 0};
  h[2] = {2, TraceEventKind::kAppRead, 2, ~0u, 0x10, 0xaa, 0};  // stale
  const CheckReport r = CheckCoherenceOracle(h);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("stale"), std::string::npos);
}

}  // namespace
}  // namespace millipage
