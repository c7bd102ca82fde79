// In-process transport: one mailbox (mutex + condvar + deque) per host.
// Payload bytes are staged once on send and copied to the sink's destination
// on receive, modeling the NIC DMA in/out of the paper's Myrinet path while
// keeping the DSM layer itself copy-free.

#ifndef SRC_NET_INPROC_TRANSPORT_H_
#define SRC_NET_INPROC_TRANSPORT_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/metrics.h"
#include "src/net/transport.h"

namespace millipage {

class Histogram;

class InProcTransport : public Transport {
 public:
  explicit InProcTransport(uint16_t num_hosts);

  Status Send(HostId to, MsgHeader h, const void* payload, size_t len) override;
  Result<bool> Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                    uint64_t timeout_us) override;
  uint16_t num_hosts() const override { return static_cast<uint16_t>(boxes_.size()); }

 private:
  struct Item {
    MsgHeader h;
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Item> q;
  };

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  // Datagram-size distribution (net.send_bytes, global registry): header +
  // payload per Send, the figure batching compresses.
  Histogram& send_bytes_ = MetricsRegistry::Global().histogram(Hist::kNetSendBytes);
};

}  // namespace millipage

#endif  // SRC_NET_INPROC_TRANSPORT_H_
