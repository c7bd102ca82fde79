// Unit tests for WaitSlots: seq encoding, per-slot FIFO reply queues (split
// transactions), the WaitFor deadline path, and AbortAll's sticky peer-down
// semantics.

#include <gtest/gtest.h>

#include <unistd.h>

#include <thread>

#include "src/common/time_util.h"
#include "src/dsm/wait_slots.h"

namespace millipage {
namespace {

MsgHeader Reply(uint32_t seq) {
  MsgHeader h;
  h.set_type(MsgType::kReadReply);
  h.seq = seq;
  return h;
}

TEST(WaitSlots, SeqEncodingRoundTrips) {
  const uint32_t seq = WaitSlots::MakeSeq(17, 0x00abcdefu);
  EXPECT_EQ(WaitSlots::SeqSlot(seq), 17u);
  EXPECT_EQ(WaitSlots::SeqGen(seq), 0x00abcdefu);
  // Generation 0 encodes as the raw slot value — the legacy wire format.
  EXPECT_EQ(WaitSlots::MakeSeq(5, 0), 5u);
  // The generation wraps at 24 bits without touching the slot byte.
  EXPECT_EQ(WaitSlots::SeqSlot(WaitSlots::MakeSeq(9, 0xffffffffu)), 9u);
}

TEST(WaitSlots, RepliesAreFifoPerSlot) {
  WaitSlots slots;
  const uint32_t slot = slots.Acquire();
  // Split transaction: several replies queued on one slot deliver in order.
  slots.Post(slot, Reply(100));
  slots.Post(slot, Reply(101));
  slots.Post(slot, Reply(102));
  EXPECT_EQ(slots.Wait(slot).seq, 100u);
  EXPECT_EQ(slots.Wait(slot).seq, 101u);
  EXPECT_EQ(slots.Wait(slot).seq, 102u);
}

TEST(WaitSlots, SlotsAreIndependent) {
  WaitSlots slots;
  const uint32_t a = slots.Acquire();
  const uint32_t b = slots.Acquire();
  slots.Post(b, Reply(2));
  slots.Post(a, Reply(1));
  EXPECT_EQ(slots.Wait(a).seq, 1u);
  EXPECT_EQ(slots.Wait(b).seq, 2u);
}

TEST(WaitSlots, WaitForTimesOut) {
  WaitSlots slots;
  const uint32_t slot = slots.Acquire();
  const uint64_t t0 = MonotonicNowNs();
  const Result<MsgHeader> r = slots.WaitFor(slot, 50);
  const uint64_t elapsed_ms = (MonotonicNowNs() - t0) / 1000000;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed_ms, 40u);
  EXPECT_LT(elapsed_ms, 5000u);
}

TEST(WaitSlots, WaitForWakesOnPost) {
  WaitSlots slots;
  const uint32_t slot = slots.Acquire();
  std::thread poster([&slots, slot] {
    ::usleep(10 * 1000);
    slots.Post(slot, Reply(7));
  });
  const Result<MsgHeader> r = slots.WaitFor(slot, 5000);
  poster.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->seq, 7u);
}

TEST(WaitSlots, AbortWakesWaiterAndSticks) {
  WaitSlots slots;
  const uint32_t slot = slots.Acquire();
  std::thread aborter([&slots] {
    ::usleep(10 * 1000);
    slots.AbortAll(Status::Unavailable("peer host 1 is down"));
  });
  const Result<MsgHeader> r = slots.WaitFor(slot, 0);  // unbounded wait
  aborter.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(slots.aborted());
  // Sticky: every later wait fails immediately with the same reason.
  const Result<MsgHeader> again = slots.WaitFor(slot, 5000);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status(), r.status());
  // First reason wins.
  slots.AbortAll(Status::Internal("second reason"));
  EXPECT_EQ(slots.abort_status().code(), StatusCode::kUnavailable);
}

TEST(WaitSlots, QueuedRepliesDrainBeforeAbort) {
  WaitSlots slots;
  const uint32_t slot = slots.Acquire();
  slots.Post(slot, Reply(55));
  slots.AbortAll(Status::Unavailable("down"));
  // The already-delivered reply is not lost to the abort.
  const Result<MsgHeader> r = slots.WaitFor(slot, 1000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->seq, 55u);
  EXPECT_FALSE(slots.WaitFor(slot, 1000).ok());
}

// The simulator's step gate: a reply posted while wakeups are held stays
// queued without waking anyone, and ReleaseWakeups delivers it.
TEST(WaitSlots, HeldPostWakesOnlyAfterRelease) {
  WaitSlots slots;
  const uint32_t slot = slots.Acquire();
  slots.HoldWakeups();
  slots.Post(slot, Reply(9));
  const Result<MsgHeader> held = slots.WaitFor(slot, 20);
  ASSERT_FALSE(held.ok());
  EXPECT_EQ(held.status().code(), StatusCode::kDeadlineExceeded);
  slots.ReleaseWakeups();
  const Result<MsgHeader> r = slots.WaitFor(slot, 1000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->seq, 9u);
}

}  // namespace
}  // namespace millipage
