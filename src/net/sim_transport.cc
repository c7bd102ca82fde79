#include "src/net/sim_transport.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace millipage {

// The fabric-facing Transport of one simulated host. Its only job is to
// attach the sender's identity to Send and to drain staged deliveries.
class SimEndpoint : public Transport {
 public:
  SimEndpoint(SimNet* net, HostId me) : net_(net), me_(me) {}

  Status Send(HostId to, MsgHeader h, const void* payload, size_t len) override {
    return net_->SendFrom(me_, to, h, payload, len);
  }

  Result<bool> Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                    uint64_t timeout_us) override {
    // The scheduler owns time: there is nothing to wait for that ScheduleNext
    // has not already staged, so the timeout is irrelevant.
    (void)timeout_us;
    return net_->PollStaged(me, h, sink);
  }

  uint16_t num_hosts() const override { return net_->num_hosts(); }

 private:
  SimNet* const net_;
  const HostId me_;
};

SimNet::SimNet(uint16_t num_hosts, uint64_t seed, SimOptions options)
    : num_hosts_(num_hosts), options_(options), seed_(seed), rng_(seed), staged_(num_hosts) {
  MP_CHECK(num_hosts > 0);
  MP_CHECK(options_.min_delay_us <= options_.max_delay_us);
  endpoints_.reserve(num_hosts);
  for (uint16_t h = 0; h < num_hosts; ++h) {
    endpoints_.push_back(std::make_unique<SimEndpoint>(this, h));
  }
}

SimNet::PairState& SimNet::Pair(size_t pair) {
  auto it = pairs_.find(pair);
  if (it == pairs_.end()) {
    // Same seed formula the eagerly-preallocated fabric used, so a pair's
    // jitter stream is identical whether it is created up-front or on its
    // first send.
    it = pairs_.emplace(pair, PairState(seed_ ^ (0x9e3779b97f4a7c15ULL * (pair + 1)))).first;
  }
  return it->second;
}

void SimNet::UnindexHead(size_t pair, uint64_t arrival) {
  const auto it = heads_.find(arrival);
  MP_CHECK(it != heads_.end());
  it->second.erase(pair);
  if (it->second.empty()) {
    heads_.erase(it);
  }
}

SimNet::~SimNet() = default;

Transport* SimNet::endpoint(HostId h) const {
  MP_CHECK(h < num_hosts_);
  return endpoints_[h].get();
}

uint64_t SimNet::now_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_us_;
}

size_t SimNet::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = queued_;
  for (const auto& q : staged_) {
    n += q.size();
  }
  return n;
}

uint64_t SimNet::delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

uint64_t SimNet::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void SimNet::Drop(HostId dst, MsgType type, uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_rules_.push_back(DropRule{dst, type, count});
}

void SimNet::KillHost(HostId v) {
  MP_CHECK(v < num_hosts_);
  std::lock_guard<std::mutex> lock(mu_);
  dead_.Add(v);
  // In-flight datagrams die with the host: purge every pair it sends on or
  // receives on, unhooking their heads from the scheduling index.
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    const size_t pair = it->first;
    const HostId from = static_cast<HostId>(pair / num_hosts_);
    const HostId to = static_cast<HostId>(pair % num_hosts_);
    if (from != v && to != v) {
      ++it;
      continue;
    }
    if (!it->second.q.empty()) {
      UnindexHead(pair, it->second.q.front().arrival_us);
      dropped_ += it->second.q.size();
      queued_ -= it->second.q.size();
    }
    // Erase the whole pair state: a dead host's channels carry no further
    // traffic (SendFrom swallows), so the jitter stream is never consulted
    // again and the tail clamp is moot.
    it = pairs_.erase(it);
  }
  dropped_ += staged_[v].size();
  staged_[v].clear();
}

HostSet SimNet::dead_set() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

Status SimNet::SendFrom(HostId from, HostId to, const MsgHeader& h, const void* payload,
                        size_t len) {
  if (to >= num_hosts_) {
    return Status::Invalid("SimNet: bad destination host");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_.Contains(from) || dead_.Contains(to)) {
    dropped_++;
    return Status::Ok();  // dead hosts neither send nor receive
  }
  for (DropRule& r : drop_rules_) {
    if (r.remaining > 0 && r.dst == to && r.type == h.msg_type()) {
      r.remaining--;
      dropped_++;
      return Status::Ok();
    }
  }
  send_bytes_.Record(sizeof(MsgHeader) + len);
  SimMsg m;
  m.h = h;
  if (payload != nullptr && len > 0) {
    m.h.flags |= kFlagHasPayload;
    m.h.pgsize = static_cast<uint32_t>(len);
    m.payload.resize(len);
    std::memcpy(m.payload.data(), payload, len);
  }
  // Jitter explores interleavings; the pair-tail clamp keeps each (sender,
  // receiver) channel FIFO regardless of the draws.
  const size_t pair = PairIndex(from, to);
  PairState& ps = Pair(pair);
  const uint64_t jitter =
      options_.min_delay_us == options_.max_delay_us
          ? options_.min_delay_us
          : ps.rng.Range(options_.min_delay_us, options_.max_delay_us);
  const uint64_t arrival = std::max(now_us_ + jitter, ps.tail_us);
  ps.tail_us = arrival;
  m.arrival_us = arrival;
  if (ps.q.empty()) {
    heads_[arrival].insert(pair);  // this message becomes the pair's head
  }
  ps.q.push_back(std::move(m));
  queued_++;
  return Status::Ok();
}

bool SimNet::ScheduleNext(HostId* dst) {
  std::lock_guard<std::mutex> lock(mu_);
  // The heads index keeps pair-queue heads bucketed by arrival time, so the
  // globally minimal bucket is begin() — no scan over every pair. The bucket
  // iterates pairs in ascending id order (std::set), the same candidate
  // order the original linear scan produced, so the seeded tie-break draws
  // match and schedules stay byte-identical.
  if (heads_.empty()) {
    return false;
  }
  const auto bucket = heads_.begin();
  const std::set<size_t>& candidates = bucket->second;
  size_t pair;
  if (candidates.size() == 1) {
    pair = *candidates.begin();
  } else {
    size_t skip = rng_.Below(candidates.size());
    auto it = candidates.begin();
    std::advance(it, skip);
    pair = *it;
  }
  PairState& ps = pairs_.at(pair);
  SimMsg m = std::move(ps.q.front());
  ps.q.pop_front();
  queued_--;
  UnindexHead(pair, m.arrival_us);
  if (!ps.q.empty()) {
    heads_[ps.q.front().arrival_us].insert(pair);
  }
  now_us_ = std::max(now_us_, m.arrival_us);
  const HostId to = static_cast<HostId>(pair % num_hosts_);
  staged_[to].push_back(std::move(m));
  delivered_++;
  if (dst != nullptr) {
    *dst = to;
  }
  return true;
}

Result<bool> SimNet::PollStaged(HostId me, MsgHeader* h, const PayloadSink& sink) {
  std::unique_lock<std::mutex> lock(mu_);
  MP_CHECK(me < num_hosts_);
  if (staged_[me].empty()) {
    return false;
  }
  SimMsg m = std::move(staged_[me].front());
  staged_[me].pop_front();
  lock.unlock();  // the sink may re-enter the node; keep the fabric unlocked
  *h = m.h;
  if (!m.payload.empty()) {
    std::byte* dst_ptr = sink(m.h);
    if (dst_ptr != nullptr) {
      std::memcpy(dst_ptr, m.payload.data(), m.payload.size());
    } else {
      h->flags &= static_cast<uint8_t>(~kFlagHasPayload);
    }
  }
  return true;
}

}  // namespace millipage
