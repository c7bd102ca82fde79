// Unit tests for the messaging layer: header format, in-process transport,
// and the SEQPACKET mesh transport (SocketTransport) with its two-stage
// (header, payload) receive.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/time_util.h"
#include "src/net/faulty_transport.h"
#include "src/net/inproc_transport.h"
#include "src/net/message.h"
#include "src/net/socket_transport.h"

namespace millipage {
namespace {

TEST(Message, HeaderIs32Bytes) { EXPECT_EQ(sizeof(MsgHeader), 32u); }

TEST(Message, GlobalAddrPackUnpack) {
  const GlobalAddr a{13, (1ULL << 40) + 12345};
  const GlobalAddr b = GlobalAddr::Unpack(a.Pack());
  EXPECT_EQ(a, b);
  EXPECT_EQ(GlobalAddr::Unpack(0), (GlobalAddr{0, 0}));
}

TEST(Message, TypeNames) {
  EXPECT_STREQ(MsgTypeName(MsgType::kReadRequest), "READ_REQUEST");
  EXPECT_STREQ(MsgTypeName(MsgType::kShutdown), "SHUTDOWN");
}

template <typename MakeTransport>
void ExerciseTransport(MakeTransport make) {
  auto transports = make(2);
  Transport& t0 = *transports[0];
  Transport& t1 = *transports[1];

  // Header-only message.
  MsgHeader h;
  h.set_type(MsgType::kAck);
  h.from = 0;
  h.seq = 7;
  const Status send_st = t0.Send(1, h, nullptr, 0);
  ASSERT_TRUE(send_st.ok()) << send_st.ToString();
  MsgHeader got;
  auto polled = t1.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; },
                        1000000);
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(*polled);
  EXPECT_EQ(got.msg_type(), MsgType::kAck);
  EXPECT_EQ(got.seq, 7u);
  EXPECT_FALSE(got.has_payload());

  // Payload message delivered to the sink's destination.
  char payload[256];
  std::memset(payload, 0xab, sizeof(payload));
  h.set_type(MsgType::kReadReply);
  ASSERT_TRUE(t0.Send(1, h, payload, sizeof(payload)).ok());
  char dest[256] = {0};
  polled = t1.Poll(1, &got,
                   [&dest](const MsgHeader& hdr) -> std::byte* {
                     EXPECT_EQ(hdr.pgsize, 256u);
                     return reinterpret_cast<std::byte*>(dest);
                   },
                   1000000);
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(*polled);
  EXPECT_TRUE(got.has_payload());
  EXPECT_EQ(std::memcmp(dest, payload, sizeof(payload)), 0);

  // Non-blocking poll on an empty queue returns false.
  polled = t1.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 0);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(*polled);

  // FIFO order per sender.
  for (uint32_t i = 0; i < 10; ++i) {
    MsgHeader m;
    m.set_type(MsgType::kAck);
    m.seq = i;
    ASSERT_TRUE(t1.Send(0, m, nullptr, 0).ok());
  }
  for (uint32_t i = 0; i < 10; ++i) {
    polled = t0.Poll(0, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 1000000);
    ASSERT_TRUE(polled.ok() && *polled);
    EXPECT_EQ(got.seq, i);
  }
}

TEST(InProcTransportTest, BasicSendReceive) {
  ExerciseTransport([](uint16_t n) {
    auto shared = std::make_shared<InProcTransport>(n);
    std::vector<std::shared_ptr<Transport>> out;
    for (uint16_t i = 0; i < n; ++i) {
      out.push_back(shared);
    }
    return out;
  });
}

TEST(InProcTransportTest, BlockingPollWakesOnSend) {
  InProcTransport t(2);
  std::thread sender([&t] {
    MsgHeader h;
    h.set_type(MsgType::kAck);
    h.seq = 99;
    ASSERT_TRUE(t.Send(1, h, nullptr, 0).ok());
  });
  MsgHeader got;
  auto polled =
      t.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 2000000);
  sender.join();
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(*polled);
  EXPECT_EQ(got.seq, 99u);
}

TEST(InProcTransportTest, RejectsBadHost) {
  InProcTransport t(2);
  MsgHeader h;
  EXPECT_FALSE(t.Send(5, h, nullptr, 0).ok());
  EXPECT_FALSE(t.Poll(5, &h, [](const MsgHeader&) -> std::byte* { return nullptr; }, 0).ok());
}

// ---------------------------------------------------------------------------
// The SEQPACKET mesh: two-datagram framing, truncation detection,
// EOF-as-peer-down, FIFO under backpressure.
// ---------------------------------------------------------------------------

class MeshTransportTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Transport> MakeOne(HostId me, std::vector<int> row) {
    return std::make_unique<SocketTransport>(me, std::move(row));
  }

  std::vector<std::unique_ptr<Transport>> MakeCluster(uint16_t n) {
    auto mesh = SocketMesh::Create(n);
    MP_CHECK(mesh.ok());
    std::vector<std::vector<int>> rows(n);
    for (uint16_t i = 0; i < n; ++i) {
      rows[i] = std::move(mesh->fds[i]);
      mesh->fds[i].clear();
    }
    mesh->fds.clear();
    std::vector<std::unique_ptr<Transport>> out;
    for (uint16_t i = 0; i < n; ++i) {
      out.push_back(MakeOne(i, std::move(rows[i])));
    }
    return out;
  }
};

TEST_F(MeshTransportTest, BasicSendReceive) {
  ExerciseTransport([this](uint16_t n) {
    auto owned = MakeCluster(n);
    std::vector<std::shared_ptr<Transport>> out;
    for (auto& t : owned) {
      out.emplace_back(std::move(t));
    }
    return out;
  });
}

TEST_F(MeshTransportTest, LargePayloadRoundTrip) {
  auto cluster = MakeCluster(2);
  Transport& t0 = *cluster[0];
  Transport& t1 = *cluster[1];

  std::vector<char> payload(64 * 1024);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31);
  }
  MsgHeader h;
  h.set_type(MsgType::kWriteReply);
  ASSERT_TRUE(t0.Send(1, h, payload.data(), payload.size()).ok());
  std::vector<char> dest(payload.size());
  MsgHeader got;
  auto polled = t1.Poll(1, &got,
                        [&dest](const MsgHeader&) -> std::byte* {
                          return reinterpret_cast<std::byte*>(dest.data());
                        },
                        2000000);
  ASSERT_TRUE(polled.ok() && *polled);
  EXPECT_EQ(dest, payload);
}

TEST_F(MeshTransportTest, DroppedPayloadIsDrained) {
  auto cluster = MakeCluster(2);
  Transport& t0 = *cluster[0];
  Transport& t1 = *cluster[1];

  char payload[64] = {1, 2, 3};
  MsgHeader h;
  h.set_type(MsgType::kWriteReply);
  h.seq = 1;
  ASSERT_TRUE(t0.Send(1, h, payload, sizeof(payload)).ok());
  h.seq = 2;
  ASSERT_TRUE(t0.Send(1, h, nullptr, 0).ok());
  MsgHeader got;
  // First message's payload is dropped (nullptr sink) but must be consumed
  // so the next header is not misparsed.
  auto polled =
      t1.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 1000000);
  ASSERT_TRUE(polled.ok() && *polled);
  EXPECT_EQ(got.seq, 1u);
  polled = t1.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 1000000);
  ASSERT_TRUE(polled.ok() && *polled);
  EXPECT_EQ(got.seq, 2u);
  EXPECT_FALSE(got.has_payload());
}

// Without MSG_TRUNC the kernel silently truncates an oversized SEQPACKET
// datagram to the receive buffer: recv returns sizeof(MsgHeader), the excess
// bytes vanish, and a corrupt/mismatched sender goes undetected. The
// receiver must surface the oversize as an error instead.
TEST_F(MeshTransportTest, OversizedDatagramIsDetected) {
  auto mesh = SocketMesh::Create(2);
  ASSERT_TRUE(mesh.ok());
  std::vector<int> row0 = std::move(mesh->fds[0]);
  std::vector<int> row1 = std::move(mesh->fds[1]);
  mesh->fds.clear();
  // Host 0 stays a raw fd so the test can send a malformed datagram that
  // Transport::Send would never produce.
  auto t1 = MakeOne(1, std::move(row1));

  char oversized[sizeof(MsgHeader) + 16] = {};
  ASSERT_EQ(::send(row0[1], oversized, sizeof(oversized), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(oversized)));

  MsgHeader got;
  const auto polled = t1->Poll(
      1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 2000000);
  ASSERT_FALSE(polled.ok()) << "oversized header datagram was silently truncated";
  EXPECT_NE(polled.status().ToString().find("oversized"), std::string::npos)
      << polled.status().ToString();

  for (int fd : row0) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

// The mirror case: a datagram shorter than a header is reported, not padded.
TEST_F(MeshTransportTest, ShortDatagramIsDetected) {
  auto mesh = SocketMesh::Create(2);
  ASSERT_TRUE(mesh.ok());
  std::vector<int> row0 = std::move(mesh->fds[0]);
  std::vector<int> row1 = std::move(mesh->fds[1]);
  mesh->fds.clear();
  auto t1 = MakeOne(1, std::move(row1));

  char runt[8] = {};
  ASSERT_EQ(::send(row0[1], runt, sizeof(runt), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(runt)));

  MsgHeader got;
  const auto polled = t1->Poll(
      1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 2000000);
  ASSERT_FALSE(polled.ok());
  EXPECT_NE(polled.status().ToString().find("short"), std::string::npos)
      << polled.status().ToString();

  for (int fd : row0) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

// A header that goes out without its payload would desynchronize the
// SEQPACKET stream (the peer would parse the next header as payload). The
// sender must instead shut the connection down so the peer sees a clean EOF
// — a peer-down event, not garbage.
TEST_F(MeshTransportTest, PayloadSendFailureClosesConnection) {
  auto cluster = MakeCluster(2);
  Transport& t0 = *cluster[0];
  Transport& t1 = *cluster[1];

  std::atomic<int> peer_down{-1};
  t1.SetPeerDownHandler([&peer_down](HostId peer) { peer_down.store(peer); });

  char payload[128] = {5, 6, 7};
  MsgHeader h;
  h.set_type(MsgType::kReadReply);
  {
    FailpointAction inject;
    inject.kind = FailpointAction::Kind::kReturn;
    inject.max_hits = 1;
    FailpointScope scope("socket.send.payload_err", inject);
    const Status st = t0.Send(1, h, payload, sizeof(payload));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  }
  // The receiver drains any orphaned header, hits EOF, and reports host 0
  // down instead of misparsing the stream.
  MsgHeader got;
  for (int i = 0; i < 10 && peer_down.load() < 0; ++i) {
    auto polled =
        t1.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 100000);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  }
  EXPECT_EQ(peer_down.load(), 0);
  // The sender's side is shut down too: further sends fail, not hang.
  EXPECT_FALSE(t0.Send(1, h, payload, sizeof(payload)).ok());
}

// A peer whose process dies (transport destroyed) must surface as an EOF-
// driven peer-down event on every surviving host.
TEST_F(MeshTransportTest, PeerDeathDeliversEof) {
  auto cluster = MakeCluster(2);
  Transport& t1 = *cluster[1];

  std::atomic<int> peer_down{-1};
  t1.SetPeerDownHandler([&peer_down](HostId peer) { peer_down.store(peer); });

  cluster[0].reset();  // host 0 "dies"

  MsgHeader got;
  for (int i = 0; i < 20 && peer_down.load() < 0; ++i) {
    auto polled =
        t1.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 100000);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    EXPECT_FALSE(*polled);
  }
  EXPECT_EQ(peer_down.load(), 0);
}

// An EINTR storm must not restart the poll budget from scratch each time:
// the wait resumes with the remaining time, so the caller's deadline holds.
TEST_F(MeshTransportTest, PollEintrStormKeepsDeadline) {
  auto cluster = MakeCluster(2);
  Transport& t1 = *cluster[1];

  FailpointAction inject;
  inject.kind = FailpointAction::Kind::kReturn;
  inject.max_hits = 50;  // 50 consecutive interrupted waits
  FailpointScope scope("socket.poll.eintr", inject);
  MsgHeader got;
  const uint64_t t_start = MonotonicNowNs();
  auto polled =
      t1.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 100000);
  const uint64_t elapsed_ms = (MonotonicNowNs() - t_start) / 1000000;
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_FALSE(*polled);
  // 100 ms budget; a restart-per-EINTR bug would take ~50x that.
  EXPECT_LT(elapsed_ms, 2000u);
}

// Backpressure: flood far more data than the 1 MiB socket buffer holds while
// the receiver drains concurrently. The sender blocks in send(2) until space
// frees (no partial datagrams under EAGAIN): nothing lost, nothing
// reordered, nothing truncated.
TEST_F(MeshTransportTest, BackpressureFloodPreservesFifo) {
  auto cluster = MakeCluster(2);
  Transport& t0 = *cluster[0];
  Transport& t1 = *cluster[1];

  constexpr uint32_t kMessages = 2000;
  constexpr size_t kPayload = 2048;  // ~4 MiB total, 4x the socket buffer
  std::thread sender([&] {
    std::vector<char> payload(kPayload);
    MsgHeader h;
    h.set_type(MsgType::kWriteReply);
    for (uint32_t i = 0; i < kMessages; ++i) {
      h.seq = i;
      std::memcpy(payload.data(), &i, sizeof(i));
      ASSERT_TRUE(t0.Send(1, h, payload.data(), payload.size()).ok());
    }
  });

  std::vector<char> dest(kPayload);
  MsgHeader got;
  for (uint32_t i = 0; i < kMessages; ++i) {
    auto polled = t1.Poll(1, &got,
                          [&dest](const MsgHeader&) -> std::byte* {
                            return reinterpret_cast<std::byte*>(dest.data());
                          },
                          5000000);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    ASSERT_TRUE(*polled) << "flood stalled at message " << i;
    ASSERT_EQ(got.seq, i) << "reordered under backpressure";
    uint32_t tag = 0;
    std::memcpy(&tag, dest.data(), sizeof(tag));
    ASSERT_EQ(tag, i) << "payload mismatched its header";
  }
  sender.join();
}

// An invalidation fan-out's shape: back-to-back sends alternating between
// two destinations arrive exactly once and in send order on each pair.
TEST_F(MeshTransportTest, InterleavedFanOutKeepsPerPairOrder) {
  auto cluster = MakeCluster(3);
  Transport& t0 = *cluster[0];

  for (uint32_t i = 0; i < 32; ++i) {
    MsgHeader h;
    h.set_type(MsgType::kAck);
    h.seq = i;
    ASSERT_TRUE(t0.Send(1 + (i % 2), h, nullptr, 0).ok());
  }

  for (HostId dst = 1; dst <= 2; ++dst) {
    uint32_t expect = dst - 1;
    MsgHeader got;
    for (int i = 0; i < 16; ++i) {
      auto polled = cluster[dst]->Poll(
          dst, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 2000000);
      ASSERT_TRUE(polled.ok() && *polled);
      EXPECT_EQ(got.seq, expect);
      expect += 2;
    }
  }
}

TEST(FaultyTransportTest, DropAndDelayFilters) {
  InProcTransport inner(2);
  FaultyTransport faulty(&inner);

  MsgHeader h;
  h.set_type(MsgType::kAck);
  // First matching send is dropped silently; the second goes through.
  faulty.DropSends(1, MsgType::kAck, 1);
  ASSERT_TRUE(faulty.Send(1, h, nullptr, 0).ok());
  ASSERT_TRUE(faulty.Send(1, h, nullptr, 0).ok());
  EXPECT_EQ(faulty.sends_dropped(), 1u);
  MsgHeader got;
  auto polled =
      inner.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 100000);
  ASSERT_TRUE(polled.ok() && *polled);
  polled = inner.Poll(1, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 0);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(*polled) << "dropped message leaked through";

  // Inbound drop: the message vanishes between the wire and the caller.
  faulty.DropReceives(kAnyHost, MsgType::kAck, 1);
  ASSERT_TRUE(inner.Send(0, h, nullptr, 0).ok());
  polled = faulty.Poll(0, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 0);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(*polled);
  EXPECT_EQ(faulty.receives_dropped(), 1u);
}

TEST(FaultyTransportTest, KilledPeerFailsSendsAndRaisesPeerDown) {
  InProcTransport inner(2);
  FaultyTransport faulty(&inner);
  std::atomic<int> peer_down{-1};
  faulty.SetPeerDownHandler([&peer_down](HostId peer) { peer_down.store(peer); });

  faulty.KillPeer(1);
  EXPECT_TRUE(faulty.peer_dead(1));
  EXPECT_EQ(peer_down.load(), 1);
  MsgHeader h;
  h.set_type(MsgType::kAck);
  const Status st = faulty.Send(1, h, nullptr, 0);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  // In-flight traffic from the dead peer is discarded on receive.
  h.from = 1;
  ASSERT_TRUE(inner.Send(0, h, nullptr, 0).ok());
  MsgHeader got;
  auto polled =
      faulty.Poll(0, &got, [](const MsgHeader&) -> std::byte* { return nullptr; }, 0);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(*polled) << "dead peer's message leaked through";
  EXPECT_EQ(faulty.receives_dropped(), 1u);
}

}  // namespace
}  // namespace millipage
