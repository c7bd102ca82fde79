// Multi-process deployment example — the paper's actual shape: one OS
// process per DSM host, connected by a SOCK_SEQPACKET mesh, each with its
// own memory object and SIGSEGV handler. Minipage contents genuinely cross
// process boundaries through the privileged views.
//
// Host 0 publishes a message board; every host appends a line under a lock
// and then everyone reads the full board.
//
// Build & run:  ./build/examples/multiprocess [hosts]

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/dsm/global_ptr.h"
#include "src/dsm/process_cluster.h"

using namespace millipage;

namespace {
constexpr uint32_t kLineBytes = 64;
constexpr uint32_t kBoardLock = 0;

struct Board {
  int32_t lines;
  char text[15][kLineBytes];
};
}  // namespace

int main(int argc, char** argv) {
  const uint16_t hosts = argc > 1 ? static_cast<uint16_t>(std::atoi(argv[1])) : 4;
  DsmConfig config;
  config.num_hosts = hosts;
  config.object_size = 1 << 20;
  config.num_views = 8;

  const Status st = RunForkedCluster(config, [](DsmNode& node, HostId host) {
    // The board is the first allocation, so every process can name it.
    GlobalPtr<Board> board(GlobalAddr{0, 0});
    if (host == 0) {
      GlobalPtr<Board> allocated = SharedAlloc<Board>(1);
      MP_CHECK(allocated.addr().offset == 0);
      std::memset(board.get(), 0, sizeof(Board));
    }
    node.Barrier();

    node.Lock(kBoardLock);
    Board* b = board.get();  // write fault migrates the board here
    std::snprintf(b->text[b->lines], kLineBytes, "hello from host %u (pid %d)", host,
                  static_cast<int>(getpid()));
    b->lines++;
    node.Unlock(kBoardLock);
    node.Barrier();

    if (host == 0) {
      const Board* b2 = board.get();
      std::printf("message board (%d lines, written across %u processes):\n", b2->lines,
                  node.num_hosts());
      for (int i = 0; i < b2->lines; ++i) {
        std::printf("  %s\n", b2->text[i]);
      }
      const CounterValues c = node.metrics().Counters();
      std::printf("host 0 protocol activity: %lu faults, %lu messages sent\n",
                  static_cast<unsigned long>(c[Metric::kReadFaults] + c[Metric::kWriteFaults]),
                  static_cast<unsigned long>(c[Metric::kMessagesSent]));
    }
    node.Barrier();
  });
  if (!st.ok()) {
    std::fprintf(stderr, "forked cluster failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
