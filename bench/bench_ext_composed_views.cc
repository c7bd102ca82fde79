// Extension bench (paper Section 5, "Composed-Views"): WATER's read phase
// wants coarse-grain fetches while its write phase wants fine-grain
// minipages. The composed-view group fetch issues all read requests of a
// phase as one split transaction, so their service times pipeline instead
// of serializing fault by fault; writes keep per-minipage granularity.
//
// Measured here on the WATER-style access pattern: a bulk read phase over
// many molecules, then fine-grain owner updates.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/model/cost_model.h"

namespace millipage {
namespace {

// Molecule/epoch counts, reduced by --smoke before any cluster spawns.
int g_molecules = 96;
int g_epochs = 4;
constexpr int kMolInts = 168;  // 672 bytes, the paper's molecule
constexpr uint16_t kHosts = 4;

struct Row {
  const char* name;
  uint64_t blocking_faults = 0;
  uint64_t batched_fetches = 0;
  double modeled_read_phase_us = 0;
  double wall_ms = 0;
};

Row Run(bool use_group_fetch) {
  DsmConfig cfg;
  cfg.num_hosts = kHosts;
  cfg.object_size = 8 << 20;
  cfg.num_views = 8;
  auto cluster = DsmCluster::Create(cfg);
  MP_CHECK(cluster.ok());
  std::vector<GlobalPtr<int>> mols;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < g_molecules; ++i) {
      mols.push_back(SharedAlloc<int>(kMolInts));
    }
    for (int i = 0; i < g_molecules; ++i) {
      mols[static_cast<size_t>(i)][0] = i;
    }
  });
  const uint64_t t0 = MonotonicNowNs();
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    const int lo = g_molecules * host / kHosts;
    const int hi = g_molecules * (host + 1) / kHosts;
    node.Barrier();
    for (int e = 0; e < g_epochs; ++e) {
      if (use_group_fetch) {
        // Composed view: one coarse fetch for the whole structure.
        std::vector<GlobalAddr> addrs;
        for (const auto& m : mols) {
          addrs.push_back(m.addr());
        }
        (void)node.FetchGroup(addrs.data(), addrs.size());
      }
      long sum = 0;
      for (int i = 0; i < g_molecules; ++i) {
        sum += mols[static_cast<size_t>(i)][0];  // read phase
      }
      node.Barrier();
      for (int i = lo; i < hi; ++i) {
        mols[static_cast<size_t>(i)][1] = static_cast<int>(sum);  // fine-grain writes
      }
      node.Barrier();
    }
  });
  Row row{use_group_fetch ? "composed-view group fetch" : "per-minipage faulting    "};
  row.wall_ms = static_cast<double>(MonotonicNowNs() - t0) / 1e6;
  const CostModel model;
  for (uint16_t h = 0; h < kHosts; ++h) {
    const CounterValues c = (*cluster)->node(h).metrics().Counters();
    row.blocking_faults += c[Metric::kReadFaults];
    row.batched_fetches += c[Metric::kPrefetches];
    // Blocking faults serialize full service round trips; batched fetches
    // overlap everything but the data transfers themselves.
    row.modeled_read_phase_us +=
        static_cast<double>(c[Metric::kReadFaults]) * model.ReadFaultUs(672) +
        static_cast<double>(c[Metric::kPrefetches]) * model.DataMsgUs(672);
  }
  return row;
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_ext_composed_views", env);
  g_molecules = env.Scaled(96, 24);
  g_epochs = env.Scaled(4, 2);
  setvbuf(stdout, nullptr, _IONBF, 0);
  PrintHeader("Extension: composed-view coarse reads (Section 5, WATER read phase)");
  std::printf("  %-27s %10s %10s %16s %9s\n", "mode", "rd faults", "batched",
              "modeled read us", "wall ms");
  for (bool group : {false, true}) {
    const Row r = Run(group);
    std::printf("  %-27s %10lu %10lu %16.0f %9.1f\n", r.name,
                static_cast<unsigned long>(r.blocking_faults),
                static_cast<unsigned long>(r.batched_fetches), r.modeled_read_phase_us,
                r.wall_ms);
    BenchResult row;
    row.name = group ? "group_fetch" : "per_minipage_faulting";
    row.params = "molecules=" + std::to_string(g_molecules) +
                 " epochs=" + std::to_string(g_epochs);
    row.iterations = static_cast<uint64_t>(g_epochs);
    row.ns_per_op = r.wall_ms * 1e6 / g_epochs;
    row.values["blocking_faults"] = static_cast<double>(r.blocking_faults);
    row.values["batched_fetches"] = static_cast<double>(r.batched_fetches);
    row.values["modeled_read_us"] = r.modeled_read_phase_us;
    reporter.Add(std::move(row));
  }
  PrintNote("expected: the group fetch converts every blocking read fault of the read");
  PrintNote("phase into a pipelined transfer (no trap, no per-fault wakeup, overlapped");
  PrintNote("service), while the write phase keeps fine-grain minipages -- the");
  PrintNote("arbitration between coarse and fine views the paper's Section 5 sketches.");
  return reporter.Finish();
}
