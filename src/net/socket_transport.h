// Socket transport: AF_UNIX SOCK_SEQPACKET full mesh. SEQPACKET gives
// exactly the FastMessages contract the paper's DSM relies on — reliable,
// connection-oriented, FIFO, message boundaries preserved. Data messages use
// the two-datagram scheme of Section 3.5: the 32-byte header first, then the
// minipage contents, received directly at the privileged-view address the
// header designates.

#ifndef SRC_NET_SOCKET_TRANSPORT_H_
#define SRC_NET_SOCKET_TRANSPORT_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/common/metrics.h"
#include "src/net/transport.h"

namespace millipage {

// Pre-created connections for an n-host mesh. In multi-process mode the
// parent creates the mesh, forks, and each child keeps row `host` only.
struct SocketMesh {
  // fds[i][j]: endpoint owned by host i, connected to host j; -1 when i==j.
  std::vector<std::vector<int>> fds;

  static Result<SocketMesh> Create(uint16_t num_hosts);

  SocketMesh() = default;
  SocketMesh(SocketMesh&& other) noexcept : fds(std::move(other.fds)) { other.fds.clear(); }
  SocketMesh& operator=(SocketMesh&& other) noexcept {
    if (this != &other) {
      CloseAll();
      fds = std::move(other.fds);
      other.fds.clear();
    }
    return *this;
  }
  SocketMesh(const SocketMesh&) = delete;
  SocketMesh& operator=(const SocketMesh&) = delete;

  // Releases row `host` for a SocketTransport and closes every other fd
  // (call in the child after fork). The struct is empty afterwards.
  std::vector<int> TakeRow(uint16_t host);

  void CloseAll();
  ~SocketMesh() { CloseAll(); }
};

class SocketTransport : public Transport {
 public:
  // `fds_by_peer[j]` is the socket to host j (-1 at index `me`); takes
  // ownership of the fds.
  SocketTransport(HostId me, std::vector<int> fds_by_peer);
  ~SocketTransport() override;

  Status Send(HostId to, MsgHeader h, const void* payload, size_t len) override;
  Result<bool> Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                    uint64_t timeout_us) override;
  uint16_t num_hosts() const override { return static_cast<uint16_t>(fds_.size()); }

 private:
  // Retires a connection whose peer has gone away. Returns the peer index
  // the fd belonged to, or -1 for the self-loop.
  int ClosePeer(int fd);

  HostId me_;
  std::vector<int> fds_;  // fds_[me_] is the send end of the self-loop
  // A host's own application threads talk to its server thread through the
  // same transport (the manager sends itself requests); this is the receive
  // end of that loop.
  int self_recv_fd_ = -1;
  // Serializes the header+payload datagram pair per destination (app thread
  // and server thread may send concurrently).
  std::vector<std::unique_ptr<std::mutex>> send_mu_;
  uint32_t rotation_ = 0;  // fairness cursor over peers (poller thread only)

  // Wire metrics (process-global registry: one socket transport per process
  // in the forked deployment). Datagram sizes include the 32-byte header.
  MetricsRegistry& metrics_ = MetricsRegistry::Global();
};

}  // namespace millipage

#endif  // SRC_NET_SOCKET_TRANSPORT_H_
