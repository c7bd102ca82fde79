#include "src/os/fault_handler.h"

#include <errno.h>
#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <stdlib.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

#include <mutex>
#include <thread>

#include "src/os/page.h"

namespace millipage {

namespace {

// Decodes whether the faulting access was a write. On x86-64 the page-fault
// error code is in REG_ERR; bit 1 is the W bit.
bool FaultWasWrite(void* ucontext_raw) {
#if defined(__x86_64__)
  const auto* uc = static_cast<ucontext_t*>(ucontext_raw);
  return (uc->uc_mcontext.gregs[REG_ERR] & 0x2) != 0;
#else
  (void)ucontext_raw;
  // Conservative fallback: treat every fault as a write (requests an
  // exclusive copy; correct but may over-invalidate).
  return true;
#endif
}

// The userfaultfd features the DSM backend needs: minor faults on shmem (our
// "NoAccess" is a zapped pte over a live page-cache page), write-protect
// fault delivery, and WP support on shmem-backed VMAs.
constexpr uint64_t kRequiredUffdFeatures = UFFD_FEATURE_MINOR_SHMEM |
                                           UFFD_FEATURE_PAGEFAULT_FLAG_WP |
                                           UFFD_FEATURE_WP_HUGETLBFS_SHMEM;

}  // namespace

const char* FaultBackendName(FaultBackend backend) {
  return backend == FaultBackend::kUserfaultfd ? "userfaultfd" : "sigsegv";
}

FaultBackend FaultBackendFromEnv() {
  const char* env = getenv("MILLIPAGE_FAULT_BACKEND");
  if (env != nullptr && (strcmp(env, "uffd") == 0 || strcmp(env, "userfaultfd") == 0)) {
    return FaultBackend::kUserfaultfd;
  }
  return FaultBackend::kSigsegv;
}

FaultHandler& FaultHandler::Instance() {
  static FaultHandler* instance = new FaultHandler();
  return *instance;
}

Status FaultHandler::InstallSigaction() {
  static std::once_flag once;
  Status result = Status::Ok();
  std::call_once(once, [&result, this] {
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = reinterpret_cast<void (*)(int, siginfo_t*, void*)>(&SignalEntry);
    // SA_NODEFER: a fault raised while the handler runs is delivered to the
    // handler again (instead of the kernel force-killing the process with
    // the signal blocked), which lets the depth guard in SignalEntry report
    // nested faults before dying.
    sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_NODEFER;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGSEGV, &sa, nullptr) != 0 || sigaction(SIGBUS, &sa, nullptr) != 0) {
      result = Status::Errno("sigaction");
      return;
    }
    installed_.store(true, std::memory_order_release);
  });
  if (!result.ok()) {
    return result;
  }
  if (!installed_.load(std::memory_order_acquire)) {
    return Status::Internal("fault handler failed to install earlier");
  }
  return Status::Ok();
}

Status FaultHandler::Install(FaultBackend requested) {
  // The SIGSEGV handler is installed in both modes: it covers mprotect'd
  // anonymous mappings, wild accesses, and every view created while the
  // sigsegv backend was (or becomes) active.
  MP_RETURN_IF_ERROR(InstallSigaction());
  if (requested == FaultBackend::kUserfaultfd && EnsureUffd().ok()) {
    active_backend_.store(FaultBackend::kUserfaultfd, std::memory_order_release);
  } else {
    // Runtime fallback: the caller asked for uffd but this kernel can't do
    // minor+WP on shmem (or the caller asked for sigsegv). Either way the
    // sigsegv backend serves every subsequent view registration.
    active_backend_.store(FaultBackend::kSigsegv, std::memory_order_release);
  }
  return Status::Ok();
}

bool FaultHandler::UffdSupported() { return EnsureUffd().ok(); }

Status FaultHandler::EnsureUffd() {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  const int state = uffd_state_.load(std::memory_order_acquire);
  if (state > 0) {
    return Status::Ok();
  }
  if (state < 0) {
    return Status::Unavailable("userfaultfd backend unavailable on this kernel");
  }
  // UFFD_USER_MODE_ONLY first (works unprivileged when
  // vm.unprivileged_userfaultfd=0); kernel-fault delivery is not needed.
  int fd = static_cast<int>(
      syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
  if (fd < 0) {
    fd = static_cast<int>(syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK));
  }
  Status failed = Status::Ok();
  if (fd < 0) {
    failed = Status::Errno("userfaultfd");
  } else {
    struct uffdio_api api;
    memset(&api, 0, sizeof(api));
    api.api = UFFD_API;
    api.features = kRequiredUffdFeatures;
#ifdef UFFD_FEATURE_WP_UNPOPULATED
    api.features |= UFFD_FEATURE_WP_UNPOPULATED;
#endif
    if (ioctl(fd, UFFDIO_API, &api) != 0) {
      failed = Status::Errno("UFFDIO_API");
    } else if ((api.features & kRequiredUffdFeatures) != kRequiredUffdFeatures) {
      failed = Status::Unavailable("kernel lacks UFFD minor+WP shmem features");
    }
  }
  if (!failed.ok()) {
    if (fd >= 0) {
      close(fd);
    }
    uffd_state_.store(-1, std::memory_order_release);
    return failed;
  }
  uffd_fd_ = fd;
  // The poller owns fault delivery for every uffd-registered view for the
  // rest of the process lifetime; detach it like the signal handler is
  // "detached" — there is no orderly teardown for fault dispatch.
  std::thread([this] { PollerLoop(); }).detach();
  uffd_state_.store(1, std::memory_order_release);
  return Status::Ok();
}

int FaultHandler::Register(FaultCallback cb, void* ctx) {
  for (int i = 0; i < kMaxSlots; ++i) {
    FaultCallback expected = nullptr;
    if (slots_[i].cb.compare_exchange_strong(expected, cb, std::memory_order_acq_rel)) {
      slots_[i].ctx.store(ctx, std::memory_order_release);
      return i;
    }
  }
  return -1;
}

void FaultHandler::Unregister(int slot) {
  if (slot >= 0 && slot < kMaxSlots) {
    slots_[slot].cb.store(nullptr, std::memory_order_release);
    slots_[slot].ctx.store(nullptr, std::memory_order_release);
  }
}

// ---- userfaultfd range operations ------------------------------------------

Status FaultHandler::UffdRegisterRange(void* base, size_t len) {
  if (uffd_state_.load(std::memory_order_acquire) <= 0) {
    return Status::Internal("uffd backend not installed");
  }
  struct uffdio_register reg;
  memset(&reg, 0, sizeof(reg));
  reg.range.start = reinterpret_cast<unsigned long>(base);
  reg.range.len = len;
  reg.mode = UFFDIO_REGISTER_MODE_MINOR | UFFDIO_REGISTER_MODE_WP;
  if (ioctl(uffd_fd_, UFFDIO_REGISTER, &reg) != 0) {
    return Status::Errno("UFFDIO_REGISTER");
  }
  return Status::Ok();
}

Status FaultHandler::UffdUnregisterRange(void* base, size_t len) {
  if (uffd_state_.load(std::memory_order_acquire) <= 0) {
    return Status::Internal("uffd backend not installed");
  }
  struct uffdio_range range;
  range.start = reinterpret_cast<unsigned long>(base);
  range.len = len;
  if (ioctl(uffd_fd_, UFFDIO_UNREGISTER, &range) != 0) {
    return Status::Errno("UFFDIO_UNREGISTER");
  }
  return Status::Ok();
}

Status FaultHandler::UffdZapRange(void* base, size_t len) {
  if (uffd_state_.load(std::memory_order_acquire) <= 0) {
    return Status::Internal("uffd backend not installed");
  }
  // MADV_DONTNEED on a MAP_SHARED view drops only this mapping's ptes; the
  // shmem pages (and the privileged view) are untouched. The next access
  // from this view raises a minor fault.
  if (madvise(base, len, MADV_DONTNEED) != 0) {
    return Status::Errno("madvise(MADV_DONTNEED)");
  }
  return Status::Ok();
}

Status FaultHandler::UffdEnsureRange(void* base, size_t len, bool write_protect) {
  if (uffd_state_.load(std::memory_order_acquire) <= 0) {
    return Status::Internal("uffd backend not installed");
  }
  // Materialize ptes from the page cache over the whole range in one ioctl
  // per contiguous absent run; EEXIST marks an already-present page, which
  // the trailing UFFDIO_WRITEPROTECT fixes up along with everything else.
  //
  // MODE_DONTWAKE is load-bearing: CONTINUE installs a *writable* pte, and
  // waking the faulting thread here lets its store land before the WP pass
  // below — a silent write on what the protocol believes is a read-only
  // copy, i.e. a lost update. The thread must stay parked until the final
  // protection is in place.
  const size_t page = PageSize();
  uintptr_t start = reinterpret_cast<uintptr_t>(base);
  const uintptr_t end = start + len;
  while (start < end) {
    struct uffdio_continue cont;
    memset(&cont, 0, sizeof(cont));
    cont.range.start = start;
    cont.range.len = end - start;
    cont.mode = UFFDIO_CONTINUE_MODE_DONTWAKE;
    if (ioctl(uffd_fd_, UFFDIO_CONTINUE, &cont) == 0) {
      break;
    }
    if (cont.mapped > 0) {
      start += static_cast<uintptr_t>(cont.mapped);
    }
    if (errno == EEXIST) {
      start += page;  // pte already present; WP pass below covers it
      continue;
    }
    if (errno == EAGAIN) {
      continue;
    }
    return Status::Errno("UFFDIO_CONTINUE");
  }
  // One WP ioctl over the full range sets the final read-only/read-write
  // state — it covers pages that were already present (EEXIST above) and
  // the ones CONTINUE just installed writable. It wakes nobody either
  // (removing WP would wake the range by default): the poller wakes the
  // faulting thread once its fault service has returned, so the thread
  // never runs ahead of that service's accounting.
  struct uffdio_writeprotect wp;
  memset(&wp, 0, sizeof(wp));
  wp.range.start = reinterpret_cast<unsigned long>(base);
  wp.range.len = len;
  wp.mode = write_protect ? UFFDIO_WRITEPROTECT_MODE_WP : UFFDIO_WRITEPROTECT_MODE_DONTWAKE;
  if (ioctl(uffd_fd_, UFFDIO_WRITEPROTECT, &wp) != 0) {
    return Status::Errno("UFFDIO_WRITEPROTECT");
  }
  return Status::Ok();
}

namespace {

// Recursion depth of fault service on this thread. With the sigsegv backend
// the whole protocol legitimately runs at depth 1 (inside the SIGSEGV
// handler); a fault raised at depth >= 1 means the handler itself faulted
// and must not be dispatched again.
thread_local int tls_fault_depth = 0;

// Set for the lifetime of the userfaultfd poller thread. A SIGSEGV-class
// fault on that thread can never be serviced (the protocol it would need is
// already running — or blocked — on this very thread), and a uffd-class
// fault would deadlock silently against the event queue it is supposed to
// drain; reject it loudly instead.
thread_local bool tls_uffd_poller = false;

// Async-signal-safe report before the process dies. `msg` names the class
// of failure ("unhandled fault" / "nested fault").
void ReportFatalFault(const char* msg, void* addr, bool is_write) {
  char buf[96];
  char* p = buf;
  const char* prefix = "[millipage] ";
  while (*prefix != '\0') {
    *p++ = *prefix++;
  }
  while (*msg != '\0') {
    *p++ = *msg++;
  }
  *p++ = is_write ? 'W' : 'R';
  const char* at = ") at 0x";
  while (*at != '\0') {
    *p++ = *at++;
  }
  const auto a = reinterpret_cast<uintptr_t>(addr);
  for (int shift = 60; shift >= 0; shift -= 4) {
    *p++ = "0123456789abcdef"[(a >> shift) & 0xf];
  }
  *p++ = '\n';
  (void)!write(2, buf, static_cast<size_t>(p - buf));
}

}  // namespace

void FaultHandler::SignalEntry(int signo, void* info_raw, void* ucontext) {
  FaultHandler& fh = Instance();
  // clock_gettime is on the vDSO fast path and the histogram updates are
  // relaxed atomics, so timing at signal depth is safe; when metrics are off
  // the handler pays one load and a branch.
  const bool timed = MetricsEnabled();
  const uint64_t t0 = timed ? MonotonicNowNs() : 0;
  auto* info = static_cast<siginfo_t*>(info_raw);
  void* addr = info->si_addr;
  const bool is_write = FaultWasWrite(ucontext);
  if (timed) {
    fh.metrics_.histogram(Hist::kFaultDecodeNs).RecordAlways(MonotonicNowNs() - t0);
  }
  if (tls_uffd_poller) {
    // The uffd poller thread faulted — either inside a callback it was
    // dispatching or in its own loop. Servicing would re-enter the protocol
    // that is already live on this thread; reject and die.
    ReportFatalFault("nested fault on uffd poller (", addr, is_write);
    signal(signo, SIG_DFL);
    raise(signo);
    return;
  }
  if (tls_fault_depth >= 1) {
    // The handler (or protocol code it called) faulted while already
    // servicing a fault on this thread. Dispatching again could recurse
    // forever; reject it and die with a diagnostic instead.
    ReportFatalFault("nested fault in handler (", addr, is_write);
    signal(signo, SIG_DFL);
    raise(signo);
    return;
  }
  tls_fault_depth++;
  const bool handled = fh.Dispatch(addr, is_write);
  tls_fault_depth--;
  if (handled) {
    if (timed) {
      fh.metrics_.histogram(Hist::kFaultServiceNs).RecordAlways(MonotonicNowNs() - t0);
    }
    return;  // protection was upgraded; the faulting instruction retries
  }
  // Not ours: restore the default disposition and re-raise so the process
  // dies with the usual SIGSEGV semantics (core dump, correct si_addr).
  ReportFatalFault("unhandled fault (", addr, is_write);
  signal(signo, SIG_DFL);
  raise(signo);
}

void FaultHandler::PollerLoop() {
  tls_uffd_poller = true;
  const size_t page = PageSize();
  for (;;) {
    struct pollfd pfd;
    pfd.fd = uffd_fd_;
    pfd.events = POLLIN;
    const int prc = poll(&pfd, 1, -1);
    if (prc <= 0) {
      if (prc < 0 && errno == EINTR) {
        continue;
      }
      ReportFatalFault("uffd poll failed (", nullptr, false);
      abort();
    }
    struct uffd_msg msg;
    const ssize_t n = read(uffd_fd_, &msg, sizeof(msg));
    if (n != static_cast<ssize_t>(sizeof(msg))) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        continue;
      }
      ReportFatalFault("uffd read failed (", nullptr, false);
      abort();
    }
    if (msg.event != UFFD_EVENT_PAGEFAULT) {
      continue;  // fork/remap/unmap events are not subscribed
    }
    const bool timed = MetricsEnabled();
    const uint64_t t0 = timed ? MonotonicNowNs() : 0;
    void* addr = reinterpret_cast<void*>(msg.arg.pagefault.address & ~(page - 1));
    const bool is_write = (msg.arg.pagefault.flags & UFFD_PAGEFAULT_FLAG_WRITE) != 0;
    if (timed) {
      metrics_.histogram(Hist::kFaultDecodeNs).RecordAlways(MonotonicNowNs() - t0);
    }
    // The callback runs the full protocol on this thread. tls_fault_depth
    // keeps the sigsegv-side guard armed: if the protocol SIGSEGVs here, the
    // signal path above reports a nested fault instead of re-dispatching.
    tls_fault_depth++;
    const bool handled = Dispatch(addr, is_write);
    tls_fault_depth--;
    if (!handled) {
      ReportFatalFault("unhandled fault (", addr, is_write);
      signal(SIGSEGV, SIG_DFL);
      raise(SIGSEGV);
      return;
    }
    if (timed) {
      metrics_.histogram(Hist::kFaultServiceNs).RecordAlways(MonotonicNowNs() - t0);
    }
    // Protection installs never wake (UffdEnsureRange), so this is the one
    // wake for the faulting thread, after the callback has finished.
    struct uffdio_range wake;
    wake.start = reinterpret_cast<unsigned long>(addr);
    wake.len = page;
    (void)ioctl(uffd_fd_, UFFDIO_WAKE, &wake);
  }
}

bool FaultHandler::Dispatch(void* fault_addr, bool is_write) {
  metrics_.Inc(Metric::kFaultsDispatched);
  for (Slot& slot : slots_) {
    FaultCallback cb = slot.cb.load(std::memory_order_acquire);
    if (cb == nullptr) {
      continue;
    }
    void* ctx = slot.ctx.load(std::memory_order_acquire);
    if (cb(ctx, fault_addr, is_write)) {
      return true;
    }
  }
  return false;
}

}  // namespace millipage
