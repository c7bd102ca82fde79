// Extension bench (paper Section 5, "Reduced-Consistency Protocols"): the
// paper proposes combining chunked minipages with a reduced-consistency
// protocol — chunking cuts fine-grain overhead, the relaxed model absorbs
// the false sharing chunking reintroduces. This bench compares three
// protocol/granularity points on two canonical sharing patterns:
//
//   SC + fine-grain minipages   (millipage's main configuration)
//   SC + full pages             (Ivy-style baseline: false sharing hurts)
//   LRC + full pages            (this repo's home-based RC extension)
//
// Patterns: (a) alternating writers on one page — pure false sharing;
// (b) a WATER-like epoch: bulk read phase over many minipages, then
// scattered writes. Costs are modeled with the paper's Table 1 / Section 4.2
// parameters (a 4 KB run-length diff priced at the paper's 250 us).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/lrc/lrc_cluster.h"
#include "src/model/cost_model.h"

namespace millipage {
namespace {

struct Row {
  const char* name;
  uint64_t faults = 0;
  uint64_t messages = 0;
  uint64_t data_bytes = 0;
  uint64_t diffs = 0;
  double modeled_us = 0;
};

// Round/epoch counts, reduced by --smoke before any cluster spawns.
int g_rounds = 30;
int g_epochs = 6;
constexpr int kVarsPerHost = 8;

DsmConfig Base(uint16_t hosts, bool page_based) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 4 << 20;
  cfg.num_views = 16;
  cfg.page_based = page_based;
  return cfg;
}

const CostModel kModel;

double DiffUs(uint64_t bytes) {
  // Section 4.2: 250 us per 4 KB run-length diff, linear in size; creation
  // at the writer plus application at the home.
  return 2.0 * 250.0 * static_cast<double>(bytes) / 4096.0;
}

// --- pattern (a): alternating writers, variables interleaved on pages ------

Row RunScAlternating(bool page_based) {
  auto cluster = DsmCluster::Create(Base(2, page_based));
  MP_CHECK(cluster.ok());
  std::vector<GlobalPtr<int>> vars;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < 2 * kVarsPerHost; ++i) {
      vars.push_back(SharedAlloc<int>(1));
      *vars.back() = 0;
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < g_rounds; ++r) {
      for (int i = 0; i < kVarsPerHost; ++i) {
        GlobalPtr<int>& v = vars[static_cast<size_t>(2 * i + host)];
        *v = *v + 1;
      }
      node.Barrier();
    }
  });
  Row row{page_based ? "SC  + full pages" : "SC  + minipages "};
  for (uint16_t h = 0; h < 2; ++h) {
    const CounterValues c = (*cluster)->node(h).metrics().Counters();
    row.faults += c[Metric::kReadFaults] + c[Metric::kWriteFaults];
    row.messages += c[Metric::kMessagesSent];
    row.data_bytes += c[Metric::kReadFaultBytes] + c[Metric::kWriteFaultBytes];
    row.modeled_us +=
        static_cast<double>(c[Metric::kReadFaults]) * kModel.ReadFaultUs(256) +
        static_cast<double>(c[Metric::kWriteFaults]) * kModel.WriteFaultUs(256, 1);
  }
  row.modeled_us += g_rounds * kModel.BarrierUs(2);
  return row;
}

Row RunLrcAlternating() {
  auto cluster = LrcCluster::Create(Base(2, /*page_based=*/true));
  MP_CHECK(cluster.ok());
  std::vector<LrcPtr<int>> vars;
  (*cluster)->RunOnManager([&](LrcNode&) {
    for (int i = 0; i < 2 * kVarsPerHost; ++i) {
      vars.push_back(LrcAlloc<int>(1));
    }
    for (auto& v : vars) {
      *v = 0;
    }
  });
  (*cluster)->RunParallel([&](LrcNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < g_rounds; ++r) {
      for (int i = 0; i < kVarsPerHost; ++i) {
        LrcPtr<int>& v = vars[static_cast<size_t>(2 * i + host)];
        *v = *v + 1;
      }
      node.Barrier();
    }
  });
  const LrcCounters c = (*cluster)->TotalCounters();
  Row row{"LRC + full pages"};
  row.faults = c.read_faults + c.write_faults;
  row.messages = c.messages_sent;
  row.data_bytes = c.fetch_bytes + c.diff_bytes;
  row.diffs = c.diffs_flushed;
  row.modeled_us = static_cast<double>(c.fetches) * kModel.ReadFaultUs(4096) +
                   static_cast<double>(c.local_upgrades) * kModel.fault_trap_us +
                   DiffUs(c.diff_bytes) +
                   static_cast<double>(c.diffs_flushed) * kModel.header_us +
                   g_rounds * kModel.BarrierUs(2);
  return row;
}

// --- pattern (b): WATER-like bulk-read epoch over chunked records -----------

constexpr int kRecords = 64;
constexpr int kRecordInts = 64;  // 256-byte records

Row RunScWaterish(uint32_t chunking) {
  DsmConfig cfg = Base(4, false);
  cfg.chunking_level = chunking;
  auto cluster = DsmCluster::Create(cfg);
  MP_CHECK(cluster.ok());
  std::vector<GlobalPtr<int>> recs;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < kRecords; ++i) {
      recs.push_back(SharedAlloc<int>(kRecordInts));
    }
    for (auto& r : recs) {
      r[0] = 1;
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    const int lo = kRecords * host / 4;
    const int hi = kRecords * (host + 1) / 4;
    node.Barrier();
    for (int e = 0; e < g_epochs; ++e) {
      long sum = 0;
      for (int i = 0; i < kRecords; ++i) {
        sum += recs[static_cast<size_t>(i)][0];  // bulk read phase
      }
      node.Barrier();
      for (int i = lo; i < hi; ++i) {
        recs[static_cast<size_t>(i)][1] = static_cast<int>(sum & 0xff);  // own updates
      }
      node.Barrier();
    }
  });
  Row row{chunking > 1 ? "SC  + chunked(4) " : "SC  + minipages  "};
  for (uint16_t h = 0; h < 4; ++h) {
    const CounterValues c = (*cluster)->node(h).metrics().Counters();
    row.faults += c[Metric::kReadFaults] + c[Metric::kWriteFaults];
    row.messages += c[Metric::kMessagesSent];
    row.data_bytes += c[Metric::kReadFaultBytes] + c[Metric::kWriteFaultBytes];
    const double avg = chunking > 1 ? 1024.0 : 256.0;
    row.modeled_us +=
        static_cast<double>(c[Metric::kReadFaults]) * kModel.ReadFaultUs(avg) +
        static_cast<double>(c[Metric::kWriteFaults]) * kModel.WriteFaultUs(avg, 1);
  }
  row.modeled_us += 2.0 * g_epochs * kModel.BarrierUs(4);
  return row;
}

Row RunLrcWaterish() {
  DsmConfig cfg = Base(4, false);
  cfg.chunking_level = 4;  // the paper's proposal: chunking + RC together
  auto cluster = LrcCluster::Create(cfg);
  MP_CHECK(cluster.ok());
  std::vector<LrcPtr<int>> recs;
  (*cluster)->RunOnManager([&](LrcNode&) {
    for (int i = 0; i < kRecords; ++i) {
      recs.push_back(LrcAlloc<int>(kRecordInts));
    }
    for (auto& r : recs) {
      r[0] = 1;
    }
  });
  (*cluster)->RunParallel([&](LrcNode& node, HostId host) {
    const int lo = kRecords * host / 4;
    const int hi = kRecords * (host + 1) / 4;
    node.Barrier();
    for (int e = 0; e < g_epochs; ++e) {
      long sum = 0;
      for (int i = 0; i < kRecords; ++i) {
        sum += recs[static_cast<size_t>(i)][0];
      }
      node.Barrier();
      for (int i = lo; i < hi; ++i) {
        recs[static_cast<size_t>(i)][1] = static_cast<int>(sum & 0xff);
      }
      node.Barrier();
    }
  });
  const LrcCounters c = (*cluster)->TotalCounters();
  Row row{"LRC + chunked(4) "};
  row.faults = c.read_faults + c.write_faults;
  row.messages = c.messages_sent;
  row.data_bytes = c.fetch_bytes + c.diff_bytes;
  row.diffs = c.diffs_flushed;
  row.modeled_us = static_cast<double>(c.fetches) * kModel.ReadFaultUs(1024) +
                   static_cast<double>(c.local_upgrades) * kModel.fault_trap_us +
                   DiffUs(c.diff_bytes) +
                   static_cast<double>(c.diffs_flushed) * kModel.header_us +
                   2.0 * g_epochs * kModel.BarrierUs(4);
  return row;
}

void Print(BenchReporter& reporter, const char* pattern, const Row& r) {
  std::printf("  %-18s %8lu %10lu %12lu %7lu %12.0f\n", r.name,
              static_cast<unsigned long>(r.faults), static_cast<unsigned long>(r.messages),
              static_cast<unsigned long>(r.data_bytes), static_cast<unsigned long>(r.diffs),
              r.modeled_us);
  BenchResult row;
  row.name = r.name;
  row.params = std::string("pattern=") + pattern;
  row.iterations = 1;
  row.ns_per_op = r.modeled_us * 1000.0;
  row.values["faults"] = static_cast<double>(r.faults);
  row.values["messages"] = static_cast<double>(r.messages);
  row.values["data_bytes"] = static_cast<double>(r.data_bytes);
  row.values["diffs"] = static_cast<double>(r.diffs);
  reporter.Add(std::move(row));
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_ext_lrc", env);
  g_rounds = env.Scaled(30, 6);
  g_epochs = env.Scaled(6, 2);
  PrintHeader("Extension: SC/minipages vs SC/pages vs home-based LRC (Section 5)");

  std::printf("\n  pattern (a): two hosts alternately write interleaved variables\n");
  std::printf("  %-18s %8s %10s %12s %7s %12s\n", "protocol", "faults", "messages",
              "data bytes", "diffs", "modeled us");
  Print(reporter, "alternating", RunScAlternating(false));
  Print(reporter, "alternating", RunScAlternating(true));
  Print(reporter, "alternating", RunLrcAlternating());

  std::printf("\n  pattern (b): WATER-like bulk read phase + owner updates, 4 hosts\n");
  std::printf("  %-18s %8s %10s %12s %7s %12s\n", "protocol", "faults", "messages",
              "data bytes", "diffs", "modeled us");
  Print(reporter, "waterish", RunScWaterish(1));
  Print(reporter, "waterish", RunScWaterish(4));
  Print(reporter, "waterish", RunLrcWaterish());

  PrintNote("expected: (a) SC/minipages and LRC both dodge the page ping-pong that hits");
  PrintNote("SC/pages; (b) chunking cuts fault counts for both models, and LRC tolerates");
  PrintNote("the false sharing chunking reintroduces at the price of diff traffic --");
  PrintNote("the hybrid the paper's Section 5 proposes.");
  return reporter.Finish();
}
