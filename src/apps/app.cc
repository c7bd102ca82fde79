#include "src/apps/app.h"

#include <set>

namespace millipage {

AppRunResult RunApp(DsmCluster& cluster, App& app) {
  cluster.RunOnManager([&app](DsmNode& manager) { app.Setup(manager); });
  cluster.RunParallel([&app](DsmNode& node, HostId host) { app.Worker(node, host); });

  AppRunResult result;
  result.name = app.name();
  result.input_desc = app.input_desc();
  result.granularity_desc = app.granularity_desc();
  cluster.RunOnManager([&](DsmNode& manager) {
    result.validation = app.Validate(manager);
    result.shared_bytes = manager.allocator()->bytes_allocated();
    result.num_minipages = manager.mpt()->size();
    std::set<uint32_t> views;
    for (size_t i = 0; i < manager.mpt()->size(); ++i) {
      views.insert(manager.mpt()->Get(static_cast<MinipageId>(i)).view);
    }
    result.num_views = static_cast<uint32_t>(views.size());
  });
  // Each shard attributes the competing requests it queues to its own host
  // counters, so the cluster total aggregates the whole directory.
  result.competing_requests = cluster.TotalCounter(Metric::kCompetingRequests);
  result.barriers = cluster.node(cluster.num_hosts() > 1 ? 1 : 0).counter(Metric::kBarriers);
  result.locks = cluster.TotalCounter(Metric::kLockAcquires);
  result.read_faults = cluster.TotalCounter(Metric::kReadFaults);
  result.write_faults = cluster.TotalCounter(Metric::kWriteFaults);

  result.timing.ns_per_work_unit = app.ns_per_work_unit();
  result.timing.num_hosts = cluster.num_hosts();
  result.timing.skip_epochs = app.warmup_epochs();
  for (uint16_t h = 0; h < cluster.num_hosts(); ++h) {
    for (const EpochRecord& r : cluster.node(h).epochs()) {
      result.timing.epochs.push_back(r);
    }
  }
  return result;
}

}  // namespace millipage
