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
                  0xa213a207f2f112d3ull,  // seed 1
                  0x13040023ee22c2e4ull,  // seed 2
                  0x6123956c0891877aull,  // seed 3
                  0xee04a43fedf2458cull,  // seed 4
                  0x50775a1a4d75c627ull,  // seed 5
                  0x8b7e5efa9ec85165ull,  // seed 6
                  0x0a5011363bba54d9ull,  // seed 7
                  0xdf45f140848750dfull,  // seed 8
                  0xf86c9ca352bfadaeull,  // seed 9
                  0x8fe3dfe3d6a68683ull,  // seed 10
              }});
}

TEST(SimGolden, ShardedSweep) {
  CheckShape({"sharded sweep", Sweep(ManagerPolicy::kSharded), 1,
              {
                  0x78b56196b260486cull,  // seed 1
                  0x81392ab70a05836aull,  // seed 2
                  0x409ec0e4466ebe3bull,  // seed 3
                  0xda82c008bc8fcb3cull,  // seed 4
                  0xa54ed18cc1208a35ull,  // seed 5
                  0x7c1606fcf7ffe421ull,  // seed 6
                  0x0c61d4060f151f40ull,  // seed 7
                  0x76690066e3af4fc2ull,  // seed 8
                  0xaec1900a7e1f4b12ull,  // seed 9
                  0x4724afa485e9a49full,  // seed 10
              }});
}

TEST(SimGolden, FourHostKill) {
  CheckShape({"4-host sharded kill", Kill(4), 1,
              {
                  0xa30ef0558f9ff5b2ull,  // seed 1
                  0xa4dd9c778e7431fdull,  // seed 2
                  0x847eca27dd0e2e55ull,  // seed 3
                  0xc6692f42fa1dfe5bull,  // seed 4
                  0x897a2953c10473f7ull,  // seed 5
                  0x49a2356ff5fba943ull,  // seed 6
                  0x179319d528d64844ull,  // seed 7
                  0x177b004b91556145ull,  // seed 8
                  0xeaab6b81c368f103ull,  // seed 9
                  0x83f8134b8fb2d1edull,  // seed 10
              }});
}

TEST(SimGolden, EightHostKill) {
  CheckShape({"8-host sharded kill", Kill(8), 11,
              {
                  0x480cf24054e59dc0ull,  // seed 11
                  0x1d64f6cde0491f4bull,  // seed 12
                  0x72a0edf959fbf9b8ull,  // seed 13
                  0x803db93196a9c1cdull,  // seed 14
                  0xc46363a2c7bfb1c2ull,  // seed 15
                  0x843ad30ee7abc57dull,  // seed 16
                  0xe7f74084cd284b10ull,  // seed 17
                  0x8eed59452efdc6ddull,  // seed 18
                  0x4c1e27b8372f163dull,  // seed 19
                  0xd7a5eae5c2045951ull,  // seed 20
              }});
}

}  // namespace
}  // namespace millipage
