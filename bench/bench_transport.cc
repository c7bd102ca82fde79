// Mesh transport costs: the syscall bill and round-trip latency of the
// SEQPACKET mesh under SocketTransport.
//
// Two workloads over a 2-host in-process mesh (one sender thread, one
// receiver thread, real socketpairs):
//
//   * rtt — header-only ping/pong, one message in flight: p50/p99/mean
//     round-trip. The per-message floor.
//   * burst — the coalescer's shape: N back-to-back header-only sends (an
//     invalidation fan-out round), acked by the receiver. The figure of
//     merit is kernel entries per message (net.syscalls delta / messages):
//     one send() each, plus the receiver's poll/recv.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/net/socket_transport.h"

namespace millipage {
namespace {

int g_rtt_iters = 2000;
int g_burst_rounds = 200;
constexpr int kBurstMsgs = 32;  // one invalidation round's worth of frames

uint64_t GlobalCounterValue(const char* name) {
  const MetricsSnapshot s = MetricsRegistry::Global().Snapshot();
  const auto it = s.counters.find(name);
  return it != s.counters.end() ? it->second : 0;
}

struct MeshPair {
  std::unique_ptr<Transport> t0;
  std::unique_ptr<Transport> t1;
};

MeshPair MakePair() {
  auto mesh = SocketMesh::Create(2);
  MP_CHECK(mesh.ok()) << mesh.status().ToString();
  std::vector<int> row0 = std::move(mesh->fds[0]);
  std::vector<int> row1 = std::move(mesh->fds[1]);
  mesh->fds.clear();
  MeshPair out;
  out.t0 = std::make_unique<SocketTransport>(0, std::move(row0));
  out.t1 = std::make_unique<SocketTransport>(1, std::move(row1));
  return out;
}

MsgHeader Header(uint64_t seq) {
  MsgHeader h;
  h.set_type(MsgType::kAck);
  h.seq = static_cast<uint32_t>(seq);
  return h;
}

const PayloadSink kNoSink = [](const MsgHeader&) -> std::byte* { return nullptr; };

struct TransportFigures {
  HistogramSnapshot rtt;        // ns per round trip
  double burst_ns_per_msg = 0;  // wall time per message across burst rounds
  double syscalls_per_msg = 0;  // net.syscalls delta per message, burst phase
};

TransportFigures Run() {
  MeshPair mesh = MakePair();
  TransportFigures out;
  Histogram rtt_hist;

  // --- rtt: strict ping/pong, echo thread on t1 -----------------------------
  const int pings = g_rtt_iters;
  std::thread echo([&] {
    MsgHeader h;
    for (int i = 0; i < pings; ++i) {
      for (;;) {
        auto polled = mesh.t1->Poll(1, &h, kNoSink, 100000);
        MP_CHECK(polled.ok()) << polled.status().ToString();
        if (*polled) {
          break;
        }
      }
      MP_CHECK(mesh.t1->Send(0, Header(h.seq), nullptr, 0).ok());
    }
  });
  for (int i = 0; i < pings; ++i) {
    const uint64_t t0 = MonotonicNowNs();
    MP_CHECK(mesh.t0->Send(1, Header(i), nullptr, 0).ok());
    MsgHeader h;
    for (;;) {
      auto polled = mesh.t0->Poll(0, &h, kNoSink, 100000);
      MP_CHECK(polled.ok()) << polled.status().ToString();
      if (*polled) {
        break;
      }
    }
    rtt_hist.Record(MonotonicNowNs() - t0);
  }
  echo.join();
  out.rtt = rtt_hist.Snapshot();

  // --- burst: invalidation-round shape --------------------------------------
  const int rounds = g_burst_rounds;
  std::thread drain([&] {
    MsgHeader h;
    for (int r = 0; r < rounds; ++r) {
      for (int m = 0; m < kBurstMsgs; ++m) {
        for (;;) {
          auto polled = mesh.t1->Poll(1, &h, kNoSink, 100000);
          MP_CHECK(polled.ok()) << polled.status().ToString();
          if (*polled) {
            break;
          }
        }
      }
      // One ack per round keeps exactly one burst in flight, so the syscall
      // count divides cleanly by rounds * kBurstMsgs.
      MP_CHECK(mesh.t1->Send(0, Header(r), nullptr, 0).ok());
    }
  });
  const uint64_t syscalls_before = GlobalCounterValue("net.syscalls");
  const uint64_t wall0 = MonotonicNowNs();
  for (int r = 0; r < rounds; ++r) {
    for (int m = 0; m < kBurstMsgs; ++m) {
      MP_CHECK(mesh.t0->Send(1, Header(r * kBurstMsgs + m), nullptr, 0).ok());
    }
    MsgHeader h;
    for (;;) {
      auto polled = mesh.t0->Poll(0, &h, kNoSink, 100000);
      MP_CHECK(polled.ok()) << polled.status().ToString();
      if (*polled) {
        break;
      }
    }
  }
  drain.join();
  const double total_msgs = static_cast<double>(rounds) * kBurstMsgs;
  out.burst_ns_per_msg = static_cast<double>(MonotonicNowNs() - wall0) / total_msgs;
  // Both endpoints share the process-global counter; the quotient is the
  // whole mesh's kernel entries per delivered message.
  out.syscalls_per_msg =
      static_cast<double>(GlobalCounterValue("net.syscalls") - syscalls_before) / total_msgs;
  return out;
}

void Report(BenchReporter& reporter) {
  const TransportFigures f = Run();
  std::printf("  %-8s %-6s %8lu %9.1f %9.1f %9.1f %12s\n", "socket", "rtt",
              static_cast<unsigned long>(f.rtt.count),
              static_cast<double>(f.rtt.Quantile(0.5)) / 1e3,
              static_cast<double>(f.rtt.Quantile(0.99)) / 1e3, f.rtt.mean() / 1e3, "");
  std::printf("  %-8s %-6s %8d %9s %9s %9.1f %12.2f\n", "socket", "burst",
              g_burst_rounds * kBurstMsgs, "", "", f.burst_ns_per_msg / 1e3,
              f.syscalls_per_msg);

  BenchResult rtt_row;
  rtt_row.name = "transport";
  rtt_row.params = "backend=socket kind=rtt";
  rtt_row.iterations = f.rtt.count;
  rtt_row.ns_per_op = f.rtt.mean();
  rtt_row.values["p50_ns"] = static_cast<double>(f.rtt.Quantile(0.5));
  rtt_row.values["p99_ns"] = static_cast<double>(f.rtt.Quantile(0.99));
  reporter.Add(std::move(rtt_row));

  BenchResult burst_row;
  burst_row.name = "transport";
  burst_row.params = "backend=socket kind=burst";
  burst_row.iterations = static_cast<uint64_t>(g_burst_rounds) * kBurstMsgs;
  burst_row.ns_per_op = f.burst_ns_per_msg;
  burst_row.values["syscalls_per_msg"] = f.syscalls_per_msg;
  reporter.Add(std::move(burst_row));
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_transport", env);
  g_rtt_iters = env.Scaled(2000, 100);
  g_burst_rounds = env.Scaled(200, 10);
  setvbuf(stdout, nullptr, _IONBF, 0);
  PrintHeader("Mesh transport: round-trip + syscalls per message");
  std::printf("  %-8s %-6s %8s %9s %9s %9s %12s\n", "backend", "kind", "msgs", "p50 us",
              "p99 us", "mean us", "syscalls/msg");
  Report(reporter);
  reporter.Finish();
  return 0;
}
