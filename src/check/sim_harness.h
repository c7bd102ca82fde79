// Deterministic protocol-simulation harness.
//
// RunSim builds a miniature DSM cluster whose nodes are never Start()ed:
// instead of server threads and wall-clock waits, a single driver thread
// owns every scheduling decision. One worker thread per host executes that
// host's op script one operation at a time; the driver takes an action only
// when the system is quiescent — every worker is idle, finished, or provably
// parked inside a wait slot (WaitSlots::WaiterBlocked) — and then either
// launches one worker op or delivers one message picked by the seeded SimNet
// scheduler (DsmNode::PumpOne). Reply deadlines are disabled, so no retry
// ever fires on wall time. No worker wakes in the middle of a step: a
// delivery (or the host-death injection) holds every reply and membership
// kick it produces until the step is over (DsmNode::HoldWakeups), so each
// step runs alone.
//
// Under this discipline the entire run — protocol message order, protection
// transitions, application reads and writes — is a deterministic function of
// the seed, and the recorded trace is byte-for-byte reproducible: the
// property the schedule sweep in tests/sim_test.cc relies on to shrink and
// replay failures.

#ifndef SRC_CHECK_SIM_HARNESS_H_
#define SRC_CHECK_SIM_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/dsm/config.h"

namespace millipage {

enum class SimOpKind : uint8_t {
  kAlloc,      // allocate every cell (host 0 only, once, before any access)
  kRead,       // load the cell, record kAppRead
  kWrite,      // store a unique value, record kAppWrite
  kLockedRmw,  // lock(cell) → read → write → unlock
  kBarrier,    // global barrier (every host's script needs the same count)
};

struct SimOp {
  SimOpKind kind = SimOpKind::kRead;
  uint32_t cell = 0;
};

struct SimWorkload {
  uint16_t hosts = 3;
  uint32_t cells = 4;         // shared uint64 cells, one minipage each
  uint32_t rounds = 3;        // barrier-separated rounds
  uint32_t ops_per_round = 4; // per host per round
  bool use_locks = true;      // mix kLockedRmw into generated scripts
  // Directory placement under test: centralized (host 0 serves everything)
  // or sharded (each host serves the ids hashing to it).
  ManagerPolicy policy = ManagerPolicy::kCentralized;
  // Host-death injection: at a seeded driver step, permanently kill one
  // non-zero host (victim = 1 + seed % (hosts-1)) and drive the survivors'
  // membership recovery. The kill fires only while the victim is between
  // script ops, so the remaining scripts stay executable; survivor accesses
  // to minipages that died with their sole copy are skipped (no kAppRead/
  // kAppWrite is recorded for them). Runs under either policy: a centralized
  // directory repairs copysets, locks and the barrier on host 0 alone.
  bool kill_one_host = false;
  // Coherence-traffic batching under test (DsmConfig::batch_coherence).
  // Off reproduces the one-datagram-per-minipage paper protocol; batched and
  // unbatched runs of the same script must agree on every application-level
  // read and write.
  bool batch_coherence = true;
  // Fault backend under test. kUserfaultfd runs the same scripts with the
  // views wired to the uffd backend (falling back to sigsegv when the kernel
  // lacks support); the harness then pre-faults every access through
  // FaultService — a worker blocked inside a kernel fault is invisible to
  // the quiescence detector, so the uffd event path must never be the one
  // driving protocol progress in the deterministic sim.
  FaultBackend backend = FaultBackend::kSigsegv;
};

struct SimResult {
  Status status = Status::Ok();   // driver outcome (deadlock, op failure, ...)
  std::vector<TraceEvent> history;
  uint64_t steps = 0;             // driver actions taken
  uint64_t virtual_us = 0;        // final virtual-clock reading

  // Host-death injection outcome (kill_one_host runs only).
  bool killed = false;            // the kill actually fired
  uint16_t killed_host = 0;
  uint64_t kill_virtual_us = 0;   // virtual clock at the kill
  uint64_t minipages_lost = 0;    // summed over surviving shards

  // Every host's registry counters, summed over all hosts (e.g. the
  // coherence-batching volume: host.batch_frames_sent is 0 when batching is
  // off or no frame ever coalesced more than one record).
  CounterValues counters;

  std::string FormattedHistory() const { return FormatTraceHistory(history); }
};

// Deterministically derives per-host scripts from `seed` (GenerateScript) and
// runs them under the seed-driven scheduler.
SimResult RunSim(uint64_t seed, const SimWorkload& workload);

// Runs explicit scripts: script[h] is host h's op sequence. Host 0's script
// must begin with kAlloc, every host's first access-phase op should sit
// behind a kBarrier (so allocation completes first), and all hosts must
// execute the same number of barriers.
SimResult RunScript(uint64_t seed, const SimWorkload& workload,
                    const std::vector<std::vector<SimOp>>& script);

// The script generator used by RunSim, exposed so tests can inspect it.
std::vector<std::vector<SimOp>> GenerateScript(uint64_t seed, const SimWorkload& w);

}  // namespace millipage

#endif  // SRC_CHECK_SIM_HARNESS_H_
