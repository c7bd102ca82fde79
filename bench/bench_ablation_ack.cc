// Ablation: the post-service ACK (Section 3.3). The paper credits the extra
// ACK message with (a) eliminating a livelock caused by request races and
// (b) eliminating queueing at non-manager hosts. This bench tests both
// claims empirically:
//
//   * with the ACK: every configuration completes, zero bounced requests --
//     the non-manager layer needs no request state at all;
//   * without it (read ACKs elided; writes stay serialized): 2 hosts limp
//     through with bounce re-routing and poisoned-fetch retries; at 4+ hosts
//     a write eventually selects a not-yet-installed replica as its data
//     source and invalidates the real holder -- the run livelocks. The
//     no-ACK configurations therefore run in forked child processes under a
//     watchdog, and a kill is reported as the livelock the paper predicts.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/dsm/process_cluster.h"

namespace millipage {
namespace {

DsmConfig Cfg(uint16_t hosts, bool enable_ack) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  cfg.enable_ack = enable_ack;
  return cfg;
}

// Rounds in the contended workload. Mutable (set from --smoke) but fixed
// before any cluster spawns; the forked no-ACK children inherit it.
int g_rounds = 200;

// The contended workload: a rotating writer plus readers on one minipage.
void Workload(DsmNode& node, HostId host, GlobalPtr<int> p) {
  for (int r = 0; r < g_rounds; ++r) {
    if (host == static_cast<HostId>(r % node.num_hosts())) {
      p[0] = r;
    }
    volatile int v = p[0];
    (void)v;
    node.Barrier();
  }
}

void RunInProcess(BenchReporter& reporter, uint16_t hosts, bool ack) {
  auto cluster = DsmCluster::Create(Cfg(hosts, ack));
  MP_CHECK(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(8);
    *p = 0;
  });
  const uint64_t t0 = MonotonicNowNs();
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) { Workload(node, host, p); });
  const double wall_ms = static_cast<double>(MonotonicNowNs() - t0) / 1e6;
  uint64_t messages = 0;
  uint64_t bounces = 0;
  uint64_t retries = 0;
  HistogramSnapshot rd;
  for (uint16_t h = 0; h < hosts; ++h) {
    messages += (*cluster)->node(h).counter(Metric::kMessagesSent);
    bounces += (*cluster)->node(h).counter(Metric::kBouncedRequests);
    retries += (*cluster)->node(h).counter(Metric::kFaultRetries);
    rd.Merge((*cluster)->node(h).read_fault_latency());
  }
  std::printf("  %-8u %-6s %-10s %10lu %8lu %8lu %10.1f %9.0f\n", hosts, ack ? "on" : "off",
              "completed", static_cast<unsigned long>(messages),
              static_cast<unsigned long>(bounces), static_cast<unsigned long>(retries),
              rd.mean() / 1000.0, wall_ms);
  BenchResult row;
  row.name = "contended_rotation";
  row.params = "hosts=" + std::to_string(hosts) + " ack=" + (ack ? "on" : "off");
  row.iterations = static_cast<uint64_t>(g_rounds);
  row.ns_per_op = wall_ms * 1e6 / g_rounds;
  row.values["messages"] = static_cast<double>(messages);
  row.values["bounces"] = static_cast<double>(bounces);
  row.values["retries"] = static_cast<double>(retries);
  row.values["read_fault_us"] = rd.mean() / 1000.0;
  reporter.Add(std::move(row));
}

void RunForkedNoAck(uint16_t hosts) {
  const uint64_t t0 = MonotonicNowNs();
  const Status st = RunForkedCluster(
      Cfg(hosts, /*enable_ack=*/false),
      [](DsmNode& node, HostId host) {
        GlobalPtr<int> p(GlobalAddr{0, 0});
        if (host == 0) {
          GlobalPtr<int> alloc = SharedAlloc<int>(8);
          MP_CHECK(alloc.addr().offset == 0);
          *alloc = 0;
        }
        node.Barrier();
        Workload(node, host, p);
      },
      /*timeout_ms=*/10000);
  const double wall_ms = static_cast<double>(MonotonicNowNs() - t0) / 1e6;
  std::printf("  %-8u %-6s %-10s %10s %8s %8s %10s %9.0f\n", hosts, "off",
              st.ok() ? "completed" : "LIVELOCK", "-", "-", "-", "-", wall_ms);
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_ablation_ack", env);
  g_rounds = env.Scaled(200, 30);
  setvbuf(stdout, nullptr, _IONBF, 0);
  PrintHeader("Ablation: post-service ACK on/off (Section 3.3)");
  std::printf("  %-8s %-6s %-10s %10s %8s %8s %10s %9s\n", "hosts", "ack", "outcome",
              "messages", "bounces", "retries", "rd flt us", "wall ms");
  const std::vector<uint16_t> ack_hosts =
      env.smoke() ? std::vector<uint16_t>{2, 4} : std::vector<uint16_t>{2, 4, 8};
  for (uint16_t hosts : ack_hosts) {
    RunInProcess(reporter, hosts, /*ack=*/true);
  }
  // Read-ACK elision: 2 hosts complete (with retries under contention);
  // larger clusters livelock, so they run sandboxed in child processes.
  RunInProcess(reporter, 2, /*ack=*/false);
  if (!env.smoke()) {
    // Each forked no-ACK run burns its 10 s watchdog before being declared a
    // livelock — too slow for the CI smoke loop, so full runs only.
    for (uint16_t hosts : {4, 8}) {
      RunForkedNoAck(hosts);
    }
  }
  PrintNote("with the ACK every request serializes per minipage at the manager: zero");
  PrintNote("bounces, no request state outside the manager. Eliding read ACKs saves one");
  PrintNote("header per read fault but needs bounce re-routing and poisoned-fetch retries,");
  PrintNote("and at higher host counts races can livelock the run (a write can pick a not-yet-");
  PrintNote("replica and invalidate the real holder) -- the race the paper's ACK prevents.");
  return reporter.Finish();
}
