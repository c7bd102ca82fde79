#include "src/net/socket_transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/time_util.h"

namespace millipage {

namespace {

constexpr int kSocketBufBytes = 1 << 20;

// Every send/recv/poll entry into the kernel, so bench_transport can report
// syscalls per message.
void CountSyscall() { MetricsRegistry::Global().Inc(Metric::kNetSyscalls); }

Status SetBufferSizes(int fd) {
  const int sz = kSocketBufBytes;
  if (setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz)) != 0 ||
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz)) != 0) {
    return Status::Errno("setsockopt(SO_SNDBUF/SO_RCVBUF)");
  }
  return Status::Ok();
}

// Receives exactly one datagram of `len` bytes into `buf`. MSG_TRUNC makes
// recv report the datagram's *real* size even when it exceeds `len` —
// without it the kernel silently truncates oversized SEQPACKET datagrams to
// the buffer size, recv returns `len`, and a corrupt/mismatched sender goes
// undetected (the excess bytes simply vanish).
Status RecvDatagram(int fd, void* buf, size_t len) {
  for (;;) {
    CountSyscall();
    const ssize_t n = ::recv(fd, buf, len, MSG_TRUNC);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == ECONNRESET) {
        // A reset mid-stream is the same liveness event as EOF: the peer is
        // gone. Surface it on the same path so the connection is retired.
        return Status::Unavailable("recv: peer host reset the connection");
      }
      return Status::Errno("recv");
    }
    if (n == 0) {
      // SEQPACKET EOF: the peer process died or closed its end. Surface it
      // so surviving hosts fail fast instead of hanging at the next barrier.
      return Status::Unavailable("peer host closed its connection");
    }
    if (static_cast<size_t>(n) > len) {
      return Status::Internal("recv: oversized datagram truncated (" + std::to_string(n) +
                              " vs expected " + std::to_string(len) + ")");
    }
    if (static_cast<size_t>(n) != len) {
      return Status::Internal("recv: short datagram (" + std::to_string(n) +
                              " vs expected " + std::to_string(len) + ")");
    }
    return Status::Ok();
  }
}

// MSG_NOSIGNAL: a send to a dead peer must return EPIPE, not kill the whole
// process with SIGPIPE — the caller turns it into a peer-down event.
Status SendDatagram(int fd, const void* buf, size_t len) {
  for (;;) {
    CountSyscall();
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("send: peer host closed its connection");
      }
      return Status::Errno("send");
    }
    if (static_cast<size_t>(n) != len) {
      return Status::Internal("send: partial datagram");
    }
    return Status::Ok();
  }
}

}  // namespace

Result<SocketMesh> SocketMesh::Create(uint16_t num_hosts) {
  SocketMesh mesh;
  mesh.fds.assign(num_hosts, std::vector<int>(num_hosts, -1));
  for (uint16_t i = 0; i < num_hosts; ++i) {
    for (uint16_t j = static_cast<uint16_t>(i + 1); j < num_hosts; ++j) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, sv) != 0) {
        Status st = Status::Errno("socketpair");
        mesh.CloseAll();
        return st;
      }
      Status st = SetBufferSizes(sv[0]);
      if (st.ok()) {
        st = SetBufferSizes(sv[1]);
      }
      if (!st.ok()) {
        ::close(sv[0]);
        ::close(sv[1]);
        mesh.CloseAll();
        return st;
      }
      mesh.fds[i][j] = sv[0];
      mesh.fds[j][i] = sv[1];
    }
  }
  return mesh;
}

std::vector<int> SocketMesh::TakeRow(uint16_t host) {
  std::vector<int> row;
  if (host < fds.size()) {
    row = std::move(fds[host]);
    fds[host].clear();
  }
  CloseAll();
  return row;
}

void SocketMesh::CloseAll() {
  for (auto& row : fds) {
    for (int& fd : row) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }
  fds.clear();
}

SocketTransport::SocketTransport(HostId me, std::vector<int> fds_by_peer)
    : me_(me), fds_(std::move(fds_by_peer)) {
  if (me_ >= fds_.size()) {
    fds_.resize(me_ + 1, -1);
  }
  // Self-loop so a host's application threads can message their own server.
  int sv[2];
  MP_CHECK(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, sv) == 0);
  MP_CHECK_OK(SetBufferSizes(sv[0]));
  MP_CHECK_OK(SetBufferSizes(sv[1]));
  fds_[me_] = sv[0];
  self_recv_fd_ = sv[1];
  send_mu_.reserve(fds_.size());
  for (size_t i = 0; i < fds_.size(); ++i) {
    send_mu_.push_back(std::make_unique<std::mutex>());
  }
}

int SocketTransport::ClosePeer(int fd) {
  for (size_t j = 0; j < fds_.size(); ++j) {
    if (fds_[j] == fd) {
      // Take the peer's send lock so an application thread mid-Send never
      // races the close and writes into a recycled descriptor.
      std::lock_guard<std::mutex> lock(*send_mu_[j]);
      ::close(fd);
      fds_[j] = -1;
      return static_cast<int>(j);
    }
  }
  if (self_recv_fd_ == fd) {
    ::close(fd);
    self_recv_fd_ = -1;
  }
  return -1;
}

SocketTransport::~SocketTransport() {
  for (int fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  if (self_recv_fd_ >= 0) {
    ::close(self_recv_fd_);
  }
}

Status SocketTransport::Send(HostId to, MsgHeader h, const void* payload, size_t len) {
  if (to >= fds_.size()) {
    return Status::Invalid("SocketTransport::Send: bad destination host");
  }
  if (payload != nullptr && len > 0) {
    h.flags |= kFlagHasPayload;
    h.pgsize = static_cast<uint32_t>(len);
  }
  ScopedTimer timer(&metrics_.histogram(Hist::kNetSendNs));
  std::lock_guard<std::mutex> lock(*send_mu_[to]);
  const int fd = fds_[to];
  if (fd < 0) {
    return Status::Unavailable("SocketTransport::Send: connection to host " +
                               std::to_string(to) + " is gone");
  }
  MP_RETURN_IF_ERROR(SendDatagram(fd, &h, sizeof(h)));
  if (h.has_payload()) {
    const Status payload_st =
        FailpointRegistry::Instance().Fire("socket.send.payload_err").has_value()
            ? Status::Unavailable("injected payload send failure")
            : SendDatagram(fd, payload, len);
    if (!payload_st.ok()) {
      // The header datagram went out without its payload, so the stream is
      // desynchronized: the peer would misparse the next header as payload.
      // Shut the connection down so the peer sees EOF (a clean peer-down
      // event) instead of garbage. The poller retires the fd on our side.
      ::shutdown(fd, SHUT_RDWR);
      return payload_st;
    }
  }
  metrics_.Inc(Metric::kNetMsgsSent);
  metrics_.histogram(Hist::kNetSendBytes).Record(sizeof(h) + (h.has_payload() ? len : 0));
  return Status::Ok();
}

Result<bool> SocketTransport::Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                                   uint64_t timeout_us) {
  if (me != me_) {
    return Status::Invalid("SocketTransport::Poll: not this host's transport");
  }
  std::vector<struct pollfd> pfds;
  pfds.reserve(fds_.size());
  for (size_t i = 0; i < fds_.size(); ++i) {
    // Rotate the scan order so no peer is starved.
    const size_t j = (i + rotation_) % fds_.size();
    // The self-loop is received on self_recv_fd_, not on the send end.
    const int fd = j == me_ ? self_recv_fd_ : fds_[j];
    if (fd >= 0) {
      pfds.push_back({fd, POLLIN, 0});
    }
  }
  rotation_++;
  if (pfds.empty()) {
    return false;
  }
  // Interrupted waits resume with the *remaining* budget, not the full one:
  // restarting from scratch would let a signal storm extend the wait without
  // bound (and with it every caller-side liveness deadline).
  const uint64_t deadline_ns =
      timeout_us == 0 ? 0 : MonotonicNowNs() + timeout_us * 1000;
  int ready;
  for (;;) {
    int timeout_ms = 0;
    if (timeout_us != 0) {
      const uint64_t now = MonotonicNowNs();
      const uint64_t remaining_ns = deadline_ns > now ? deadline_ns - now : 0;
      timeout_ms = static_cast<int>((remaining_ns + 999999) / 1000000);
    }
    const bool fake_eintr =
        FailpointRegistry::Instance().Fire("socket.poll.eintr").has_value();
    if (!fake_eintr) {
      CountSyscall();
    }
    ready = fake_eintr ? -1 : ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready >= 0) {
      break;
    }
    if (!fake_eintr && errno != EINTR) {
      return Status::Errno("poll");
    }
    if (timeout_us != 0 && MonotonicNowNs() >= deadline_ns) {
      ready = 0;
      break;
    }
  }
  if (ready == 0) {
    return false;
  }
  for (size_t i = 0; i < pfds.size(); ++i) {
    // POLLHUP/POLLERR without POLLIN still means "read me": the recv returns
    // the EOF/reset that retires the connection.
    if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    const int fd = pfds[i].fd;
    // EOF/reset — at a header boundary or mid-message (a sender that failed
    // between header and payload shuts the stream down) — retires the
    // connection and raises the peer-down event; the DSM layer decides
    // whether this is a normal teardown (final barrier passed) or a mid-run
    // failure.
    const auto retire_peer = [this, fd] {
      const int peer = ClosePeer(fd);
      if (peer >= 0 && peer != static_cast<int>(me_)) {
        NotifyPeerDown(static_cast<HostId>(peer));
      }
    };
    const Status header_st = RecvDatagram(fd, h, sizeof(*h));
    if (header_st.code() == StatusCode::kUnavailable) {
      retire_peer();
      return false;
    }
    MP_RETURN_IF_ERROR(header_st);
    if (h->has_payload()) {
      std::byte* dst = sink(*h);
      std::vector<std::byte> scratch;
      if (dst == nullptr) {
        scratch.resize(h->pgsize);
        dst = scratch.data();
      }
      // FIFO per connection: the payload datagram is next on this fd.
      const Status payload_st = RecvDatagram(fd, dst, h->pgsize);
      if (payload_st.code() == StatusCode::kUnavailable) {
        retire_peer();
        return false;
      }
      MP_RETURN_IF_ERROR(payload_st);
    }
    metrics_.Inc(Metric::kNetMsgsRecv);
    metrics_.histogram(Hist::kNetRecvBytes)
        .Record(sizeof(*h) + (h->has_payload() ? h->pgsize : 0));
    return true;
  }
  return false;
}

}  // namespace millipage
