// Process-wide fault dispatcher — the POSIX analog of the structured
// exception handler millipage installs on Windows NT.
//
// The DSM runtime registers a callback; when an application thread touches a
// protected vpage, the callback runs the full request/reply protocol,
// upgrades the protection, and returns true so the faulting access is
// retried. Unhandled faults fall through to the default disposition (crash
// with a core), so genuine wild accesses still fail fast.
//
// Two backends share the callback registry:
//
//   kSigsegv      the original SIGSEGV/SIGBUS sigaction. Views are mprotect'd
//                 and the protocol runs inside the signal frame on the
//                 faulting thread.
//   kUserfaultfd  userfaultfd(2) in MINOR+WP mode on the shared memory
//                 object. Views stay PROT_READ|PROT_WRITE; "NoAccess" zaps
//                 the view's ptes (MADV_DONTNEED -> minor fault on next
//                 touch) and "ReadOnly" write-protects them, so faults are
//                 delivered as messages to a poller thread — no signal frame,
//                 no handler-reentrancy hazard — while the faulting thread
//                 sleeps in the kernel until the protocol wakes it.
//
// The backend is a process-wide *mode* for new view registrations, not an
// either/or: the SIGSEGV handler is always installed (it still covers
// mprotect'd anonymous mappings, use-after-unmap, and the fallback path), and
// the poller only exists once a userfaultfd registration succeeded. Install()
// falls back to kSigsegv at runtime when the kernel lacks minor-fault or
// write-protect support for shmem.

#ifndef SRC_OS_FAULT_HANDLER_H_
#define SRC_OS_FAULT_HANDLER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/common/metrics.h"
#include "src/common/status.h"

namespace millipage {

// Returns true if the fault was resolved and the access should be retried.
using FaultCallback = bool (*)(void* ctx, void* fault_addr, bool is_write);

// Fault-delivery backend for application views (DsmConfig::fault_backend).
enum class FaultBackend : uint8_t {
  kSigsegv = 0,      // mprotect + SIGSEGV (always available)
  kUserfaultfd = 1,  // userfaultfd MINOR+WP (needs kernel support; else falls back)
};

const char* FaultBackendName(FaultBackend backend);

// Backend requested by the MILLIPAGE_FAULT_BACKEND environment variable
// ("uffd"/"userfaultfd" selects kUserfaultfd; anything else, including unset,
// is kSigsegv). The CI backend matrix re-runs whole test suites with this
// set, mirroring MILLIPAGE_MANAGER_POLICY.
FaultBackend FaultBackendFromEnv();

class FaultHandler {
 public:
  static constexpr int kMaxSlots = 8;

  static FaultHandler& Instance();

  // Installs the SIGSEGV/SIGBUS sigaction (always) and, when `requested` is
  // kUserfaultfd, brings up the userfaultfd + poller thread on first use.
  // Idempotent and thread-safe; sets the active backend for view sets
  // created afterwards. Falls back to kSigsegv (and still returns Ok) when
  // the kernel lacks UFFD minor/write-protect support — check
  // active_backend() to see what actually took effect.
  Status Install(FaultBackend requested = FaultBackend::kSigsegv);

  // The backend new view registrations will use.
  FaultBackend active_backend() const {
    return active_backend_.load(std::memory_order_acquire);
  }

  // True if this kernel supports the userfaultfd backend (attempts the
  // one-time uffd bring-up if it hasn't happened yet).
  bool UffdSupported();

  // Registers a callback; returns a slot id (>= 0), or -1 if full.
  int Register(FaultCallback cb, void* ctx);
  void Unregister(int slot);

  // ---- userfaultfd range operations (used by ViewSet in uffd mode) --------
  // All require a successful Install(kUserfaultfd); they return Internal
  // status otherwise. `base`/`len` must be page-aligned.

  // Registers [base, base+len) for MINOR+WP fault delivery to the poller.
  Status UffdRegisterRange(void* base, size_t len);
  Status UffdUnregisterRange(void* base, size_t len);

  // "NoAccess": zaps the range's ptes so the next touch minor-faults. The
  // backing page-cache pages (and hence the data) survive.
  Status UffdZapRange(void* base, size_t len);

  // "ReadOnly"/"ReadWrite": materializes ptes for the whole range from the
  // page cache (UFFDIO_CONTINUE) and sets the write-protect bit on or off.
  // The backing pages must already exist in the page cache (ViewSet
  // instantiates the object through the privileged view at creation).
  Status UffdEnsureRange(void* base, size_t len, bool write_protect);

  uint64_t faults_dispatched() const { return metrics_.value(Metric::kFaultsDispatched); }

  FaultHandler(const FaultHandler&) = delete;
  FaultHandler& operator=(const FaultHandler&) = delete;

 private:
  FaultHandler() = default;

  static void SignalEntry(int signo, void* info, void* ucontext);
  bool Dispatch(void* fault_addr, bool is_write);

  Status InstallSigaction();
  // One-time userfaultfd bring-up (fd + API handshake + poller thread).
  // Returns Ok if the uffd backend is usable.
  Status EnsureUffd();
  void PollerLoop();

  struct Slot {
    std::atomic<FaultCallback> cb{nullptr};
    std::atomic<void*> ctx{nullptr};
  };

  Slot slots_[kMaxSlots];
  std::atomic<bool> installed_{false};
  std::atomic<FaultBackend> active_backend_{FaultBackend::kSigsegv};

  // uffd state: fixed after the one-time bring-up attempt.
  std::atomic<int> uffd_state_{0};  // 0 = untried, 1 = available, -1 = unavailable
  int uffd_fd_ = -1;

  // fault.* metrics. Updates are relaxed atomics, safe at signal depth.
  MetricsRegistry& metrics_ = MetricsRegistry::Global();
};

}  // namespace millipage

#endif  // SRC_OS_FAULT_HANDLER_H_
