// Wait slots: the per-thread events faulting threads block on while their
// request is serviced (the paper's pmsg->event). POSIX semaphores are used
// because sem_wait/sem_post are async-signal-safe, and the faulting thread
// waits from inside the SIGSEGV handler.
//
// Liveness layer: WaitFor bounds every wait with a deadline (sem_timedwait,
// still async-signal-safe), and AbortAll wakes every current and future
// waiter with a sticky error — the peer-down path that turns "hang at the
// next barrier" into a prompt Status::Unavailable.
//
// The wire `seq` field carries more than the slot: the low byte is the slot
// index and the high 24 bits a per-operation generation. A requester that
// times out and retries (or abandons) an operation bumps the generation, so
// a late reply to the old attempt is recognizably stale instead of being
// mistaken for the new attempt's reply.

#ifndef SRC_DSM_WAIT_SLOTS_H_
#define SRC_DSM_WAIT_SLOTS_H_

#include <semaphore.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/net/message.h"

namespace millipage {

class WaitSlots {
 public:
  static constexpr uint32_t kMaxSlots = 64;

  // seq wire encoding: low byte slot, high 24 bits generation (mod 2^24).
  static uint32_t MakeSeq(uint32_t slot, uint32_t gen) {
    return ((gen & 0xffffffu) << 8) | (slot & 0xffu);
  }
  static uint32_t SeqSlot(uint32_t seq) { return seq & 0xffu; }
  static uint32_t SeqGen(uint32_t seq) { return seq >> 8; }

  WaitSlots() {
    for (auto& s : slots_) {
      MP_CHECK(sem_init(&s.sem, 0, 0) == 0);
    }
  }
  ~WaitSlots() {
    for (auto& s : slots_) {
      sem_destroy(&s.sem);
    }
  }

  WaitSlots(const WaitSlots&) = delete;
  WaitSlots& operator=(const WaitSlots&) = delete;

  // Reserves a slot for a thread's lifetime.
  uint32_t Acquire() {
    const uint32_t id = next_.fetch_add(1, std::memory_order_relaxed);
    MP_CHECK(id < kMaxSlots) << "too many threads per host";
    return id;
  }

  // Blocks until a reply for `slot` arrives; returns the oldest undelivered
  // reply. Replies queue per slot, so split transactions (several requests
  // outstanding on one slot, e.g. a composed-view group fetch) deliver every
  // reply exactly once, in arrival order. Unbounded wait; fatal if the slots
  // are aborted while waiting — deadline-aware callers use WaitFor.
  MsgHeader Wait(uint32_t slot) {
    Result<MsgHeader> r = WaitFor(slot, 0);
    MP_CHECK(r.ok()) << "WaitSlots::Wait: " << r.status().ToString();
    return *r;
  }

  // Returns the oldest undelivered reply for `slot`, waiting at most
  // `timeout_ms` (0 = wait forever). Queued replies are always delivered
  // before an abort is reported. Errors:
  //   kDeadlineExceeded — no reply within the budget;
  //   the AbortAll status (default kUnavailable) — slots are aborted.
  Result<MsgHeader> WaitFor(uint32_t slot, uint64_t timeout_ms) {
    MP_CHECK(slot < kMaxSlots);
    Slot& s = slots_[slot];
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.in_wait = true;
    }
    struct timespec abs_deadline;
    if (timeout_ms > 0) {
      clock_gettime(CLOCK_REALTIME, &abs_deadline);
      abs_deadline.tv_sec += static_cast<time_t>(timeout_ms / 1000);
      abs_deadline.tv_nsec += static_cast<long>((timeout_ms % 1000) * 1000000);
      if (abs_deadline.tv_nsec >= 1000000000L) {
        abs_deadline.tv_sec += 1;
        abs_deadline.tv_nsec -= 1000000000L;
      }
    }
    for (;;) {
      // Fast path: consume an already-posted reply (or a stale abort token).
      while (sem_trywait(&s.sem) == 0) {
        std::lock_guard<std::mutex> lock(s.mu);
        if (!s.replies.empty()) {
          const MsgHeader reply = s.replies.front();
          s.replies.pop_front();
          // Cleared in the same critical section as the pop, so an observer
          // never sees "in wait, no reply queued" for a thread that in fact
          // holds its reply and is running. A real reply supersedes a
          // pending kick: the thread is making progress.
          s.in_wait = false;
          s.has_kick = false;
          return reply;
        }
        if (s.has_kick) {
          s.has_kick = false;
          s.in_wait = false;
          return s.kicked;
        }
        // Token without a reply: an abort wake-up; fall through to report it.
        break;
      }
      if (aborted_.load(std::memory_order_acquire)) {
        return LeaveWait(s, abort_status());
      }
      const int rc = timeout_ms > 0 ? sem_timedwait(&s.sem, &abs_deadline)
                                    : sem_wait(&s.sem);
      if (rc != 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == ETIMEDOUT) {
          if (aborted_.load(std::memory_order_acquire)) {
            return LeaveWait(s, abort_status());
          }
          return LeaveWait(
              s, Status::DeadlineExceeded("no reply on wait slot " + std::to_string(slot) +
                                          " within " + std::to_string(timeout_ms) + " ms"));
        }
        return LeaveWait(s, Status::Errno("sem_wait"));
      }
      std::lock_guard<std::mutex> lock(s.mu);
      if (!s.replies.empty()) {
        const MsgHeader reply = s.replies.front();
        s.replies.pop_front();
        s.in_wait = false;
        s.has_kick = false;
        return reply;
      }
      if (s.has_kick) {
        s.has_kick = false;
        s.in_wait = false;
        return s.kicked;
      }
      // Woken without a reply: abort token — loop re-checks aborted_.
    }
  }

  // Deposits a reply and wakes the waiter (or, while wakeups are held,
  // queues the wake for ReleaseWakeups).
  void Post(uint32_t slot, const MsgHeader& reply) {
    MP_CHECK(slot < kMaxSlots);
    Slot& s = slots_[slot];
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.replies.push_back(reply);
      if (DeferWake(s)) {
        return;
      }
    }
    sem_post(&s.sem);
  }

  // Deterministic-simulation gate: between HoldWakeups and ReleaseWakeups,
  // Post and KickAll queue their replies and kicks but post no wake token,
  // so no parked thread runs concurrently with the rest of a simulator step
  // (which would make the schedule depend on thread timing, not the seed).
  // Hold and release on the thread that posts (the simulator's driver);
  // threaded nodes never hold.
  void HoldWakeups() { held_.store(true, std::memory_order_relaxed); }
  void ReleaseWakeups() {
    held_.store(false, std::memory_order_relaxed);
    for (auto& s : slots_) {
      uint32_t n;
      {
        std::lock_guard<std::mutex> lock(s.mu);
        n = s.held_wakes;
        s.held_wakes = 0;
      }
      for (; n > 0; --n) {
        sem_post(&s.sem);
      }
    }
  }

  // Wakes every current waiter and fails every future wait with `status`
  // (sticky). Queued replies are still drained first. Used by the peer-down
  // path; also async-signal-unsafe-free apart from the small mutex.
  void AbortAll(Status status) {
    {
      std::lock_guard<std::mutex> lock(abort_mu_);
      if (aborted_.load(std::memory_order_acquire)) {
        return;  // first reason wins
      }
      abort_status_ = std::move(status);
    }
    aborted_.store(true, std::memory_order_release);
    for (auto& s : slots_) {
      sem_post(&s.sem);  // reply-less token: wakes a waiter into the abort path
    }
  }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  // Wakes every *currently parked* waiter once with `status` (one-shot, not
  // sticky): that waiter's WaitFor returns `status`; threads not parked and
  // all future waits are unaffected. The recovery path fires this after a
  // membership epoch bump so threads waiting on a reply that will never come
  // (the peer died, or the owning shard moved) re-send against the new
  // membership immediately instead of waiting out their full timeout.
  void KickAll(Status status) {
    for (auto& s : slots_) {
      bool wake = false;
      {
        std::lock_guard<std::mutex> lock(s.mu);
        if (s.in_wait && s.replies.empty()) {
          s.kicked = status;
          s.has_kick = true;
          wake = !DeferWake(s);
        }
      }
      if (wake) {
        sem_post(&s.sem);
      }
    }
  }

  // True while the thread owning `slot` is parked inside WaitFor with no
  // reply queued, no kick pending, and no abort pending — i.e. it cannot
  // make progress until the next Post. The deterministic simulator's
  // quiescence predicate; sound because in_wait is cleared in the same
  // critical section that pops a reply, so a running thread is never
  // reported blocked. A pending kick counts as progress: the wake token is
  // already posted, the thread just hasn't been scheduled yet — reporting it
  // blocked would let the simulator declare a deadlock in the window between
  // KickAll and the woken thread's re-send.
  bool WaiterBlocked(uint32_t slot) const {
    MP_CHECK(slot < kMaxSlots);
    const Slot& s = slots_[slot];
    std::lock_guard<std::mutex> lock(s.mu);
    return s.in_wait && s.replies.empty() && !s.has_kick &&
           !aborted_.load(std::memory_order_acquire);
  }

  Status abort_status() const {
    std::lock_guard<std::mutex> lock(abort_mu_);
    return abort_status_;
  }

 private:
  struct Slot {
    sem_t sem;
    mutable std::mutex mu;
    std::deque<MsgHeader> replies;
    bool in_wait = false;   // guarded by mu
    bool has_kick = false;  // guarded by mu; one-shot KickAll wake pending
    Status kicked;          // guarded by mu; status that wake reports
    uint32_t held_wakes = 0;  // guarded by mu; tokens deferred by HoldWakeups
  };

  // With s.mu held: while wakeups are held, counts one deferred wake token
  // for ReleaseWakeups and returns true (the caller posts none).
  bool DeferWake(Slot& s) {
    if (!held_.load(std::memory_order_relaxed)) {
      return false;
    }
    s.held_wakes++;
    return true;
  }

  // Clears in_wait on a non-reply exit from WaitFor.
  static Status LeaveWait(Slot& s, Status status) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.in_wait = false;
    return status;
  }

  Slot slots_[kMaxSlots];
  std::atomic<uint32_t> next_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> held_{false};
  mutable std::mutex abort_mu_;
  Status abort_status_;
};

}  // namespace millipage

#endif  // SRC_DSM_WAIT_SLOTS_H_
