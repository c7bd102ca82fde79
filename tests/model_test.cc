// Unit tests for the cost model: parameter sanity against the paper's
// measured numbers and the epoch-pricing logic.

#include <gtest/gtest.h>

#include "src/model/cost_model.h"

namespace millipage {
namespace {

TEST(CostModelTest, DataMessageMatchesTable1) {
  const CostModel m;
  // Table 1: 0.5 KB -> 22 us, 1 KB -> 34 us, 4 KB -> 90 us.
  EXPECT_NEAR(m.DataMsgUs(512), 22.0, 3.0);
  EXPECT_NEAR(m.DataMsgUs(1024), 34.0, 3.0);
  EXPECT_NEAR(m.DataMsgUs(4096), 90.0, 3.0);
}

TEST(CostModelTest, FaultTimesMatchSection42) {
  CostModel m;
  m.server_response_us = 0;  // Section 4.2 times exclude the polling delay
  // Read faults: 204 us at 128 B, 314 us at 4 KB.
  EXPECT_NEAR(m.ReadFaultUs(128), 204.0, 25.0);
  EXPECT_NEAR(m.ReadFaultUs(4096), 314.0, 40.0);
  // Write faults: 212-366 us at 128 B depending on invalidations.
  EXPECT_NEAR(m.WriteFaultUs(128, 0), 216.0, 30.0);
  EXPECT_GE(m.WriteFaultUs(128, 6), 330.0);
  // Barrier: 59-153 us for 1-8 hosts.
  EXPECT_NEAR(m.BarrierUs(1), 59.0, 1.0);
  EXPECT_NEAR(m.BarrierUs(8), 153.0, 5.0);
}

TEST(CostModelTest, WithFastServiceRemovesDelay) {
  const CostModel m;
  const CostModel fast = m.WithFastService();
  EXPECT_GT(m.ReadFaultUs(128), fast.ReadFaultUs(128) + 400.0);
}

AppTimingInput TwoHostInput() {
  AppTimingInput in;
  in.ns_per_work_unit = 10.0;
  in.num_hosts = 2;
  for (uint32_t epoch = 0; epoch < 2; ++epoch) {
    for (uint32_t host = 0; host < 2; ++host) {
      EpochRecord r;
      r.epoch = epoch;
      r.host = host;
      r.delta[Metric::kWorkUnits] = 1000;
      r.delta[Metric::kReadFaults] = host == 1 ? 2 : 0;
      r.delta[Metric::kReadFaultBytes] = host == 1 ? 256 : 0;
      in.epochs.push_back(r);
    }
  }
  return in;
}

TEST(ModelRunTest, CriticalPathIsSlowestHost) {
  const CostModel m;
  const ModeledRun run = ModelRun(m, TwoHostInput());
  EXPECT_EQ(run.num_epochs, 2u);
  // Each epoch: host 1 is the critical path (compute + 2 read faults).
  const double host1_epoch_us = 1000 * 10.0 / 1000.0 + 2 * m.ReadFaultUs(128);
  EXPECT_NEAR(run.total_us, 2 * (host1_epoch_us + m.BarrierUs(2)), 1.0);
  // Breakdown splits into compute, read faults, and synch (incl. imbalance).
  EXPECT_GT(run.breakdown.comp_us, 0.0);
  EXPECT_GT(run.breakdown.read_fault_us, 0.0);
  EXPECT_GT(run.breakdown.synch_us, 0.0);
  EXPECT_DOUBLE_EQ(run.breakdown.write_fault_us, 0.0);
  EXPECT_NEAR(run.breakdown.total(), run.total_us, 1e-6);
}

TEST(ModelRunTest, SpeedupOfBalancedComputeApproachesHostCount) {
  const CostModel m;
  // Serial: one host, all the work.
  AppTimingInput serial;
  serial.ns_per_work_unit = 1000.0;
  serial.num_hosts = 1;
  EpochRecord r;
  r.delta[Metric::kWorkUnits] = 800000;
  serial.epochs.push_back(r);
  const ModeledRun s = ModelRun(m, serial);

  // Parallel: eight hosts, work split evenly, a few faults each.
  AppTimingInput par;
  par.ns_per_work_unit = 1000.0;
  par.num_hosts = 8;
  for (uint32_t h = 0; h < 8; ++h) {
    EpochRecord e;
    e.host = h;
    e.delta[Metric::kWorkUnits] = 100000;
    e.delta[Metric::kReadFaults] = 4;
    e.delta[Metric::kReadFaultBytes] = 4 * 256;
    par.epochs.push_back(e);
  }
  const ModeledRun p = ModelRun(m, par);
  const double speedup = Speedup(s, p);
  EXPECT_GT(speedup, 7.0);
  EXPECT_LE(speedup, 8.0);
}

TEST(ModelRunTest, FaultBoundAppBenefitsFromFastService) {
  // An app dominated by fault service gains when the polling problem is
  // "solved" (Section 3.5 discussion).
  AppTimingInput in;
  in.ns_per_work_unit = 1.0;
  in.num_hosts = 4;
  for (uint32_t h = 0; h < 4; ++h) {
    EpochRecord e;
    e.host = h;
    e.delta[Metric::kWorkUnits] = 1000;
    e.delta[Metric::kReadFaults] = 100;
    e.delta[Metric::kReadFaultBytes] = 100 * 128;
    in.epochs.push_back(e);
  }
  const CostModel slow;
  const ModeledRun a = ModelRun(slow, in);
  const ModeledRun b = ModelRun(slow.WithFastService(), in);
  EXPECT_GT(a.total_us, 2.5 * b.total_us);
}

TEST(ModelRunTest, CompetingRequestsPricedAsQueueing) {
  // Two identical inputs except one epoch saw manager queueing: the queued
  // run must be modeled slower, with the delay in the synch category.
  auto make = [](uint64_t competing) {
    AppTimingInput in;
    in.num_hosts = 2;
    for (uint32_t h = 0; h < 2; ++h) {
      EpochRecord r;
      r.host = h;
      r.delta[Metric::kWorkUnits] = 1000;
      r.delta[Metric::kReadFaults] = 10;
      r.delta[Metric::kReadFaultBytes] = 10 * 256;
      if (h == 0) {
        r.delta[Metric::kCompetingRequests] = competing;
      }
      in.epochs.push_back(r);
    }
    return in;
  };
  const CostModel m;
  const ModeledRun quiet = ModelRun(m, make(0));
  const ModeledRun queued = ModelRun(m, make(20));
  EXPECT_GT(queued.total_us, quiet.total_us);
  EXPECT_GT(queued.breakdown.synch_us, quiet.breakdown.synch_us);
  EXPECT_DOUBLE_EQ(queued.breakdown.comp_us, quiet.breakdown.comp_us);
}

TEST(ModelRunTest, SkipEpochsExcludesColdStart) {
  AppTimingInput in;
  in.num_hosts = 1;
  for (uint32_t e = 0; e < 3; ++e) {
    EpochRecord r;
    r.epoch = e;
    r.delta[Metric::kWorkUnits] = 100;
    r.delta[Metric::kReadFaults] = e == 0 ? 1000 : 0;  // huge distribution epoch
    r.delta[Metric::kReadFaultBytes] = e == 0 ? 1000 * 256 : 0;
    in.epochs.push_back(r);
  }
  const CostModel m;
  const ModeledRun all = ModelRun(m, in);
  in.skip_epochs = 1;
  const ModeledRun steady = ModelRun(m, in);
  EXPECT_EQ(steady.num_epochs, 2u);
  EXPECT_LT(steady.total_us, all.total_us / 10);
}

TEST(BreakdownTest, ToStringShowsPercentages) {
  Breakdown b;
  b.comp_us = 50;
  b.synch_us = 50;
  const std::string s = b.ToString();
  EXPECT_NE(s.find("comp 50.0%"), std::string::npos);
  EXPECT_NE(s.find("synch 50.0%"), std::string::npos);
}

}  // namespace
}  // namespace millipage
