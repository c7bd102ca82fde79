// False-sharing demo: the paper's headline problem and its MultiView cure,
// side by side.
//
// Two hosts alternately increment two different variables that live on the
// same physical page. With classic page-granularity sharing (Ivy-style,
// --page-based) the page ping-pongs between the hosts on every round; with
// MultiView minipages each variable has its own protection and each host
// faults exactly once, ever.
//
// Build & run:  ./build/examples/false_sharing_demo [rounds]

#include <cstdio>
#include <cstdlib>

#include "src/common/time_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"

using namespace millipage;

namespace {

struct DemoResult {
  uint64_t faults = 0;
  uint64_t bytes_moved = 0;
  double wall_ms = 0;
};

DemoResult Run(bool page_based, int rounds) {
  DsmConfig config;
  config.num_hosts = 2;
  config.object_size = 1 << 20;
  config.num_views = 8;
  config.page_based = page_based;
  auto cluster = DsmCluster::Create(config);
  MP_CHECK(cluster.ok()) << cluster.status().ToString();

  GlobalPtr<int> x;
  GlobalPtr<int> y;
  (*cluster)->RunOnManager([&](DsmNode&) {
    x = SharedAlloc<int>(1);
    y = SharedAlloc<int>(1);
    *x = 0;
    *y = 0;
  });
  // Same page, independent protection (unless page_based collapsed them).
  std::printf("  x at view %u offset %lu | y at view %u offset %lu -> %s\n", x.addr().view,
              static_cast<unsigned long>(x.addr().offset), y.addr().view,
              static_cast<unsigned long>(y.addr().offset),
              page_based ? "one full-page sharing unit" : "two independent minipages");

  const uint64_t t0 = MonotonicNowNs();
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < rounds; ++r) {
      if (host == 0) {
        *x = *x + 1;
      } else {
        *y = *y + 1;
      }
      node.Barrier();
    }
  });
  DemoResult result;
  result.wall_ms = static_cast<double>(MonotonicNowNs() - t0) / 1e6;
  const DsmCluster& c = **cluster;
  result.faults = c.TotalCounter(Metric::kReadFaults) + c.TotalCounter(Metric::kWriteFaults);
  result.bytes_moved =
      c.TotalCounter(Metric::kReadFaultBytes) + c.TotalCounter(Metric::kWriteFaultBytes);
  (*cluster)->RunOnManager([&](DsmNode&) {
    MP_CHECK(*x == rounds && *y == rounds) << "wrong result!";
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 100;
  std::printf("Two hosts, %d rounds, x and y on the same physical page.\n\n", rounds);

  std::printf("MultiView minipages (the paper's technique):\n");
  const DemoResult fine = Run(/*page_based=*/false, rounds);
  std::printf("  -> %lu faults, %lu bytes moved, %.1f ms\n\n",
              static_cast<unsigned long>(fine.faults),
              static_cast<unsigned long>(fine.bytes_moved), fine.wall_ms);

  std::printf("Full-page sharing (Ivy-style baseline):\n");
  const DemoResult coarse = Run(/*page_based=*/true, rounds);
  std::printf("  -> %lu faults, %lu bytes moved, %.1f ms\n\n",
              static_cast<unsigned long>(coarse.faults),
              static_cast<unsigned long>(coarse.bytes_moved), coarse.wall_ms);

  std::printf("false sharing cost: %.1fx the faults, %.1fx the data volume\n",
              static_cast<double>(coarse.faults) / static_cast<double>(fine.faults ? fine.faults : 1),
              static_cast<double>(coarse.bytes_moved) /
                  static_cast<double>(fine.bytes_moved ? fine.bytes_moved : 1));
  return 0;
}
