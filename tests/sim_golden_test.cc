// Golden histories: the refactor oracle, pinned. The deterministic simulator
// replays a seed as one byte-identical event history, so a change that only
// restructures the protocol must leave every seed's history as it was. This
// test checks an FNV-1a hash of FormattedHistory() for ten seeds of four
// shapes:
//   * the 3-host sweep, centralized and sharded;
//   * a 4-host sharded run with one host killed mid-run;
//   * an 8-host sharded kill run (seed 18 once replayed nondeterministically).
// The kill shapes take locks and cross barriers, so recovery's copyset,
// lock-holder and barrier-generation surveys all run under the hashes.
//
// Policy, backend and batching are set explicitly, so the env-driven CI legs
// (MILLIPAGE_MANAGER_POLICY, MILLIPAGE_FAULT_BACKEND) run this unchanged.
//
// A change that is *meant* to alter histories regenerates the table with
//   MILLIPAGE_SIM_GOLDEN_PRINT=1 ./sim_golden_test
// and says why in its description; a pure refactor never edits it.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "src/check/sim_harness.h"

namespace millipage {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

SimWorkload Sweep(ManagerPolicy policy) {
  SimWorkload w;
  w.hosts = 3;
  w.cells = 4;
  w.rounds = 3;
  w.ops_per_round = 4;
  w.use_locks = true;
  w.policy = policy;
  w.batch_coherence = true;
  w.backend = FaultBackend::kSigsegv;
  return w;
}

SimWorkload Kill(uint16_t hosts) {
  SimWorkload w = Sweep(ManagerPolicy::kSharded);
  w.hosts = hosts;
  w.rounds = 2;
  w.ops_per_round = 3;
  w.kill_one_host = true;
  return w;
}

constexpr int kSeeds = 10;

struct Shape {
  const char* name;
  SimWorkload workload;
  uint64_t first_seed;
  uint64_t hashes[kSeeds];
};

void CheckShape(const Shape& shape) {
  const bool print = std::getenv("MILLIPAGE_SIM_GOLDEN_PRINT") != nullptr;
  if (print) {
    printf("%s:\n", shape.name);
  }
  for (int i = 0; i < kSeeds; ++i) {
    const uint64_t seed = shape.first_seed + static_cast<uint64_t>(i);
    const SimResult r = RunSim(seed, shape.workload);
    ASSERT_TRUE(r.status.ok()) << shape.name << " seed " << seed << ": "
                               << r.status.ToString();
    const uint64_t got = Fnv1a(r.FormattedHistory());
    if (print) {
      printf("      0x%016" PRIx64 "ull,  // seed %" PRIu64 "\n", got, seed);
      continue;
    }
    EXPECT_EQ(got, shape.hashes[i])
        << shape.name << " seed " << seed << ": history changed (hash 0x" << std::hex << got
        << "); replay it with MILLIPAGE_SIM_SEED=" << std::dec << seed;
  }
}

TEST(SimGolden, CentralizedSweep) {
  CheckShape({"centralized sweep", Sweep(ManagerPolicy::kCentralized), 1,
              {
                  0x8c1a3eb9afe1a1e9ull,  // seed 1
                  0x94bacc99474cd237ull,  // seed 2
                  0xf73749ab224ab490ull,  // seed 3
                  0xa5c9fcfd11f1a55aull,  // seed 4
                  0x2cad18a9b9eab8a7ull,  // seed 5
                  0xa6d2812b1fda1861ull,  // seed 6
                  0x68e237e3be31ad97ull,  // seed 7
                  0xdfe0ad5f208be393ull,  // seed 8
                  0x95e8284a9dd142a9ull,  // seed 9
                  0x199f871fb5251993ull,  // seed 10
              }});
}

TEST(SimGolden, ShardedSweep) {
  CheckShape({"sharded sweep", Sweep(ManagerPolicy::kSharded), 1,
              {
                  0x78c9cfc95f5050a4ull,  // seed 1
                  0x81392ab70a05836aull,  // seed 2
                  0x409ec0e4466ebe3bull,  // seed 3
                  0x1b64e75e19afaac9ull,  // seed 4
                  0x9b645b36d70a97a0ull,  // seed 5
                  0xc458d2c593e90a54ull,  // seed 6
                  0x4e328e1703c67c02ull,  // seed 7
                  0x156f2ed428605371ull,  // seed 8
                  0xaec1900a7e1f4b12ull,  // seed 9
                  0x3a00eaa49a2af7adull,  // seed 10
              }});
}

TEST(SimGolden, FourHostKill) {
  CheckShape({"4-host sharded kill", Kill(4), 1,
              {
                  0x3069a93cfa36c013ull,  // seed 1
                  0xa691212dc3a853d4ull,  // seed 2
                  0x9c8a0c42edb76699ull,  // seed 3
                  0xae0aa18db4418cfcull,  // seed 4
                  0xada003882416d645ull,  // seed 5
                  0x9197a455b49a862aull,  // seed 6
                  0x9b975cc9f64137e0ull,  // seed 7
                  0x7d32aef55efba0b0ull,  // seed 8
                  0xeaab6b81c368f103ull,  // seed 9
                  0xbe4de8a4aa9d3b6full,  // seed 10
              }});
}

TEST(SimGolden, EightHostKill) {
  CheckShape({"8-host sharded kill", Kill(8), 11,
              {
                  0x57a8f2a10db4bb2cull,  // seed 11
                  0xf0c6cde610503198ull,  // seed 12
                  0xd2213a0e0d25bfa4ull,  // seed 13
                  0x499f1b6dc3b96fc9ull,  // seed 14
                  0xb77e6f6bbcb3d6a6ull,  // seed 15
                  0xab7466c82f9ad7b7ull,  // seed 16
                  0xc9cb1fa50126e4bfull,  // seed 17
                  0x7902f760cdfb2198ull,  // seed 18
                  0xec11efb71958d862ull,  // seed 19
                  0xfd256223c28ffc43ull,  // seed 20
              }});
}

}  // namespace
}  // namespace millipage
