// Transport: the reliable, FIFO, message-boundary-preserving service the DSM
// needs from its messaging layer (the role Illinois FastMessages plays in
// the paper). Three implementations:
//   * InProcTransport  — per-host mailboxes inside one process (the
//     in-process cluster mode);
//   * SocketTransport  — AF_UNIX SOCK_SEQPACKET full mesh (one process per
//     host, the paper's deployment shape);
//   * UringTransport   — the same SEQPACKET mesh driven through io_uring:
//     multishot receive with a registered buffer ring and batched send
//     submission, so a burst of messages costs one syscall (or none).

#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>

#include "src/common/status.h"
#include "src/net/message.h"

namespace millipage {

// Two-stage receive: after the header is read, the transport asks the sink
// where the payload (h.pgsize bytes) should land — typically an address in
// the privileged view — and receives it directly there. Returning nullptr
// drops the payload.
using PayloadSink = std::function<std::byte*(const MsgHeader& h)>;

class Transport {
 public:
  virtual ~Transport() = default;

  // Sends `h` (plus `len` payload bytes from `payload` when non-null) to
  // host `to`. Reliable and FIFO per (sender, receiver) pair.
  virtual Status Send(HostId to, MsgHeader h, const void* payload, size_t len) = 0;

  // Receives at most one message addressed to `me`. Returns true and fills
  // *h if a message was consumed within `timeout_us` (0 = non-blocking).
  // The wait is only as fine as the backend's clock: SocketTransport rounds
  // a nonzero `timeout_us` up to whole milliseconds for poll(2), so a
  // 100 µs wait there blocks for 1 ms.
  virtual Result<bool> Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                            uint64_t timeout_us) = 0;

  virtual uint16_t num_hosts() const = 0;

  // Send-burst window. Between BeginBurst and EndBurst a transport MAY defer
  // handing queued sends to the kernel; EndBurst releases everything at once
  // (UringTransport turns a coalescer flush of N frames into one
  // io_uring_enter). Nestable — only the outermost EndBurst releases — and a
  // no-op on transports that submit eagerly. Decorators must forward both.
  virtual void BeginBurst() {}
  virtual void EndBurst() {}

  // Liveness: invoked (from whichever thread detects it, typically the
  // poller) when the transport discovers that `peer` is unreachable — its
  // connection saw EOF/reset, or a fault injector declared it dead. One
  // handler per transport object; register before traffic starts. The
  // shared InProcTransport never detects peer death itself (threads in one
  // process don't vanish); only decorators raise the event there.
  using PeerDownHandler = std::function<void(HostId peer)>;
  virtual void SetPeerDownHandler(PeerDownHandler handler) {
    std::lock_guard<std::mutex> lock(peer_down_mu_);
    peer_down_ = std::move(handler);
  }

 protected:
  void NotifyPeerDown(HostId peer) {
    PeerDownHandler handler;
    {
      std::lock_guard<std::mutex> lock(peer_down_mu_);
      handler = peer_down_;
    }
    if (handler) {
      handler(peer);
    }
  }

 private:
  std::mutex peer_down_mu_;
  PeerDownHandler peer_down_;
};

}  // namespace millipage

#endif  // SRC_NET_TRANSPORT_H_
