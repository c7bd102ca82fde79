// Ablation: fine-grain minipages vs the Ivy-style full-page baseline — the
// paper's central claim isolated. Two hosts alternately update disjoint
// variables that share one physical page; with minipages each host keeps
// its variable's minipage forever, with page granularity the page bounces
// every round (false sharing).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/model/cost_model.h"

namespace millipage {
namespace {

struct GranResult {
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t data_bytes = 0;
  double modeled_us = 0;
};

GranResult Run(bool page_based, int rounds, int vars_per_host) {
  DsmConfig cfg;
  cfg.num_hosts = 2;
  cfg.object_size = 1 << 20;
  cfg.num_views = 16;
  cfg.page_based = page_based;
  auto cluster = DsmCluster::Create(cfg);
  MP_CHECK(cluster.ok());
  std::vector<GlobalPtr<int>> vars;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < 2 * vars_per_host; ++i) {
      vars.push_back(SharedAlloc<int>(1));
      *vars.back() = 0;
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < vars_per_host; ++i) {
        // Interleaved ownership: host 0 takes even vars, host 1 odd, so
        // neighbors on the same page always belong to the other host.
        GlobalPtr<int>& v = vars[static_cast<size_t>(2 * i + host)];
        *v = *v + 1;
        node.AddWorkUnits(1);
      }
      node.Barrier();
    }
  });
  GranResult out;
  AppTimingInput timing;
  timing.ns_per_work_unit = 50.0;
  timing.num_hosts = 2;
  for (uint16_t h = 0; h < 2; ++h) {
    const CounterValues c = (*cluster)->node(h).metrics().Counters();
    out.read_faults += c[Metric::kReadFaults];
    out.write_faults += c[Metric::kWriteFaults];
    out.data_bytes += c[Metric::kReadFaultBytes] + c[Metric::kWriteFaultBytes];
    for (const EpochRecord& r : (*cluster)->node(h).epochs()) {
      timing.epochs.push_back(r);
    }
  }
  out.modeled_us = ModelRun(CostModel(), timing).total_us;
  return out;
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_ablation_granularity", env);
  PrintHeader("Ablation: minipage granularity vs full-page sharing (false sharing)");
  std::printf("  %-12s %10s %10s %12s %14s\n", "granularity", "rd faults", "wr faults",
              "data bytes", "modeled us");
  const int kRounds = env.Scaled(50, 10);
  constexpr int kVars = 4;
  const GranResult fine = Run(false, kRounds, kVars);
  const GranResult coarse = Run(true, kRounds, kVars);
  for (const auto& [label, g] :
       {std::make_pair("minipage", &fine), std::make_pair("full_page", &coarse)}) {
    BenchResult row;
    row.name = label;
    row.params = "rounds=" + std::to_string(kRounds) + " vars_per_host=" + std::to_string(kVars);
    row.iterations = static_cast<uint64_t>(kRounds);
    row.ns_per_op = g->modeled_us * 1000.0 / kRounds;
    row.values["read_faults"] = static_cast<double>(g->read_faults);
    row.values["write_faults"] = static_cast<double>(g->write_faults);
    row.values["data_bytes"] = static_cast<double>(g->data_bytes);
    reporter.Add(std::move(row));
  }
  std::printf("  %-12s %10lu %10lu %12lu %14.0f\n", "minipage",
              static_cast<unsigned long>(fine.read_faults),
              static_cast<unsigned long>(fine.write_faults),
              static_cast<unsigned long>(fine.data_bytes), fine.modeled_us);
  std::printf("  %-12s %10lu %10lu %12lu %14.0f\n", "full page",
              static_cast<unsigned long>(coarse.read_faults),
              static_cast<unsigned long>(coarse.write_faults),
              static_cast<unsigned long>(coarse.data_bytes), coarse.modeled_us);
  std::printf("  page-based / minipage fault ratio: %.1fx\n",
              static_cast<double>(coarse.read_faults + coarse.write_faults) /
                  static_cast<double>(fine.read_faults + fine.write_faults));
  PrintNote("expected: minipage faults stay O(vars) regardless of rounds; full-page");
  PrintNote("faults grow O(rounds * vars) — the slowdown class the paper eliminates.");
  return reporter.Finish();
}
