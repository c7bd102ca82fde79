// Quickstart: the millipage DSM in ~60 lines.
//
// Creates an in-process cluster of 4 hosts (each with its own memory object,
// views, and protections — the same protocol a multi-machine deployment
// runs), allocates a shared counter and a shared array in fine-grain
// minipages, and lets every host work on them with plain loads and stores.
// First access to remote data takes a genuine SIGSEGV, the millipage
// protocol fetches the minipage, and the instruction retries — exactly the
// mechanism of Itzkovitz & Schuster's OSDI '99 paper.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"

using namespace millipage;

int main() {
  DsmConfig config;
  config.num_hosts = 4;
  config.object_size = 1 << 20;  // 1 MiB of shared memory
  config.num_views = 8;          // up to 8 minipages per physical page

  auto cluster = DsmCluster::Create(config);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    return 1;
  }

  // The manager host allocates shared data; the returned handles are valid
  // on every host.
  GlobalPtr<long> counter;
  GlobalPtr<long> partials;
  (*cluster)->RunOnManager([&](DsmNode&) {
    counter = SharedAlloc<long>(1);   // its own minipage: no false sharing
    partials = SharedAlloc<long>(4);  // one slot per host, one minipage
    *counter = 0;
    for (int i = 0; i < 4; ++i) {
      partials[i] = 0;
    }
  });

  // One application thread per host. Plain memory accesses drive the DSM.
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    long local = 0;
    for (long i = 1 + host; i <= 1000; i += 4) {
      local += i;  // private compute
    }
    partials[host] = local;  // write fault: this host takes the minipage

    node.Lock(0);  // cluster-wide lock, served by the manager
    *counter = *counter + local;
    node.Unlock(0);

    node.Barrier();  // cluster-wide barrier
    // After the barrier everyone observes everyone's writes (sequential
    // consistency): re-reads fault in fresh copies as needed.
    long sum = 0;
    for (int h = 0; h < 4; ++h) {
      sum += partials[h];
    }
    if (sum != *counter) {
      std::fprintf(stderr, "host %u: inconsistency!\n", host);
    }
    node.Barrier();
  });

  (*cluster)->RunOnManager([&](DsmNode& node) {
    std::printf("sum(1..1000) computed by 4 DSM hosts = %ld (expected 500500)\n", *counter);
    std::printf("protocol activity: %lu read faults, %lu write faults, %lu messages\n",
                static_cast<unsigned long>((*cluster)->TotalCounter(Metric::kReadFaults)),
                static_cast<unsigned long>((*cluster)->TotalCounter(Metric::kWriteFaults)),
                static_cast<unsigned long>((*cluster)->TotalCounter(Metric::kMessagesSent)));
    (void)node;
  });
  return 0;
}
