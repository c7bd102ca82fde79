// Heat-plate solver on the DSM: red/black successive over-relaxation with
// row-granularity minipages (the paper's SOR workload, presented as a small
// application rather than a benchmark).
//
// The plate's top edge is held hot, the other edges cold; hosts own
// contiguous row bands and exchange only boundary rows per color phase.
// Prints the temperature field as ASCII art plus the DSM traffic that the
// run generated.
//
// Build & run:  ./build/examples/sor_heat [hosts] [iterations]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"

using namespace millipage;

namespace {
constexpr uint32_t kRows = 48;
constexpr uint32_t kCols = 64;  // 256-byte rows, the paper's granularity
}  // namespace

int main(int argc, char** argv) {
  const uint16_t hosts = argc > 1 ? static_cast<uint16_t>(std::atoi(argv[1])) : 4;
  const int iterations = argc > 2 ? std::atoi(argv[2]) : 200;

  DsmConfig config;
  config.num_hosts = hosts;
  config.object_size = 4 << 20;
  config.num_views = 16;
  auto cluster = DsmCluster::Create(config);
  MP_CHECK(cluster.ok()) << cluster.status().ToString();

  std::vector<GlobalPtr<float>> rows;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (uint32_t r = 0; r < kRows; ++r) {
      rows.push_back(SharedAlloc<float>(kCols));
      float* row = rows.back().get();
      for (uint32_t c = 0; c < kCols; ++c) {
        row[c] = (r == 0) ? 100.0f : 0.0f;  // hot top edge
      }
    }
  });

  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    const uint32_t interior = kRows - 2;
    const uint32_t lo = 1 + interior * host / hosts;
    const uint32_t hi = 1 + interior * (host + 1) / hosts;
    node.Barrier();
    for (int it = 0; it < iterations; ++it) {
      for (int color = 0; color < 2; ++color) {
        for (uint32_t r = lo; r < hi; ++r) {
          const float* up = rows[r - 1].get();
          const float* down = rows[r + 1].get();
          float* cur = rows[r].get();
          for (uint32_t c = 1; c + 1 < kCols; ++c) {
            if ((r + c) % 2 == static_cast<uint32_t>(color)) {
              cur[c] = 0.25f * (up[c] + down[c] + cur[c - 1] + cur[c + 1]);
            }
          }
        }
        node.Barrier();
      }
    }
  });

  (*cluster)->RunOnManager([&](DsmNode&) {
    static const char kShades[] = " .:-=+*#%@";
    std::printf("temperature field (%ux%u plate, %d iterations, %u DSM hosts):\n", kRows,
                kCols, iterations, hosts);
    for (uint32_t r = 0; r < kRows; r += 2) {
      const float* row = rows[r].get();
      for (uint32_t c = 0; c < kCols; ++c) {
        const int shade = static_cast<int>(row[c] / 100.0f * 9.49f);
        std::putchar(kShades[shade < 0 ? 0 : (shade > 9 ? 9 : shade)]);
      }
      std::putchar('\n');
    }
  });
  auto total = [&](Metric m) {
    return static_cast<unsigned long>((*cluster)->TotalCounter(m));
  };
  std::printf(
      "\nDSM traffic: %lu read faults, %lu write faults, %lu KB moved, %lu barriers\n",
      total(Metric::kReadFaults), total(Metric::kWriteFaults),
      (total(Metric::kReadFaultBytes) + total(Metric::kWriteFaultBytes)) / 1024,
      total(Metric::kBarriers) / hosts);
  return 0;
}
