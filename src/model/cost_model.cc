#include "src/model/cost_model.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace millipage {

double CostModel::ReadFaultUs(double avg_bytes) const {
  // trap -> request header to manager -> MPT lookup -> forwarded header ->
  // data message -> set protection at server and requester -> wakeup -> ACK.
  return fault_trap_us + header_us + mpt_lookup_us + header_us + DataMsgUs(avg_bytes) +
         2 * set_prot_us + wakeup_us + header_us + server_response_us;
}

double CostModel::WriteFaultUs(double avg_bytes, double avg_invalidations) const {
  return ReadFaultUs(avg_bytes) + set_prot_us + avg_invalidations * per_invalidation_us;
}

double CostModel::BarrierUs(uint16_t hosts) const {
  return barrier_base_us + barrier_per_host_us * (hosts > 0 ? hosts - 1 : 0);
}

double CostModel::PrefetchUs(double avg_bytes) const {
  // Issue cost plus the transfer itself; unlike a fault there is no trap,
  // no blocked thread, and no wakeup — that is why LU inserts them.
  return prefetch_issue_us + header_us + mpt_lookup_us + header_us + DataMsgUs(avg_bytes) +
         set_prot_us;
}

std::string Breakdown::ToString() const {
  std::ostringstream os;
  const double t = total();
  auto pct = [t](double v) { return t > 0 ? 100.0 * v / t : 0.0; };
  os.precision(1);
  os << std::fixed;
  os << "comp " << pct(comp_us) << "% | prefetch " << pct(prefetch_us) << "% | read-fault "
     << pct(read_fault_us) << "% | write-fault " << pct(write_fault_us) << "% | synch "
     << pct(synch_us) << "%";
  return os.str();
}

ModeledRun ModelRun(const CostModel& model, const AppTimingInput& input) {
  ModeledRun run;
  // Group records by epoch.
  std::map<uint32_t, std::vector<const EpochRecord*>> by_epoch;
  for (const EpochRecord& r : input.epochs) {
    if (r.epoch < input.skip_epochs) {
      continue;  // cold-start distribution epochs are not measured
    }
    by_epoch[r.epoch].push_back(&r);
  }
  run.num_epochs = static_cast<uint32_t>(by_epoch.size());
  const double barrier_us = model.BarrierUs(input.num_hosts);

  for (const auto& [epoch, records] : by_epoch) {
    // Cluster-wide average invalidations per write fault this epoch.
    uint64_t total_inval = 0;
    uint64_t total_writes = 0;
    for (const EpochRecord* r : records) {
      total_inval += r->delta[Metric::kInvalidationsReceived];
      total_writes += r->delta[Metric::kWriteFaults];
    }
    const double avg_inval =
        total_writes > 0 ? static_cast<double>(total_inval) / static_cast<double>(total_writes)
                         : 0.0;

    // Average fault service time this epoch, for pricing queueing delay.
    uint64_t total_reads = 0;
    uint64_t total_competing = 0;
    double total_fault_us = 0;
    for (const EpochRecord* r : records) {
      total_reads += r->delta[Metric::kReadFaults];
      total_competing += r->delta[Metric::kCompetingRequests];
    }

    double epoch_max_us = 0;
    std::vector<Breakdown> host_parts;
    host_parts.reserve(records.size());
    for (const EpochRecord* r : records) {
      const CounterValues& d = r->delta;
      const uint64_t reads = d[Metric::kReadFaults];
      const uint64_t writes = d[Metric::kWriteFaults];
      const uint64_t prefetches = d[Metric::kPrefetches];
      Breakdown b;
      b.comp_us = static_cast<double>(d[Metric::kWorkUnits]) * input.ns_per_work_unit / 1000.0;
      const double avg_rd =
          reads > 0 ? static_cast<double>(d[Metric::kReadFaultBytes]) / reads : 0.0;
      const double avg_wr =
          writes > 0 ? static_cast<double>(d[Metric::kWriteFaultBytes]) / writes : 0.0;
      const double avg_pf =
          prefetches > 0 ? static_cast<double>(d[Metric::kPrefetchBytes]) / prefetches : 0.0;
      b.read_fault_us = static_cast<double>(reads) * model.ReadFaultUs(avg_rd);
      b.write_fault_us = static_cast<double>(writes) * model.WriteFaultUs(avg_wr, avg_inval);
      b.prefetch_us = static_cast<double>(prefetches) * model.PrefetchUs(avg_pf);
      b.synch_us = static_cast<double>(d[Metric::kLockAcquires]) * model.lock_us;
      total_fault_us += b.read_fault_us + b.write_fault_us;
      host_parts.push_back(b);
      epoch_max_us = std::max(epoch_max_us, b.total());
    }
    // Competing requests serialize at the manager: each queued request adds
    // a fraction of an average fault-service time to the epoch.
    const uint64_t total_faults = total_reads + total_writes;
    if (total_competing > 0 && total_faults > 0) {
      const double avg_fault_us = total_fault_us / static_cast<double>(total_faults);
      const double queue_us = model.competing_wait_factor * avg_fault_us *
                              static_cast<double>(total_competing);
      epoch_max_us += queue_us;
      run.breakdown.synch_us += queue_us;
    }
    // Average the per-host categories; barrier wait (imbalance) plus the
    // barrier operation itself are synchronization time.
    const double inv_n = 1.0 / static_cast<double>(host_parts.size());
    for (const Breakdown& b : host_parts) {
      run.breakdown.comp_us += b.comp_us * inv_n;
      run.breakdown.prefetch_us += b.prefetch_us * inv_n;
      run.breakdown.read_fault_us += b.read_fault_us * inv_n;
      run.breakdown.write_fault_us += b.write_fault_us * inv_n;
      run.breakdown.synch_us += (b.synch_us + (epoch_max_us - b.total())) * inv_n;
    }
    run.breakdown.synch_us += barrier_us;
    run.total_us += epoch_max_us + barrier_us;
  }
  return run;
}

}  // namespace millipage
