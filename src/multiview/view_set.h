// ViewSet: one memory object mapped n+1 times — n application views whose
// vpage protections are manipulated independently, plus the privileged view,
// permanently ReadWrite, used by DSM server threads for atomic in-place
// updates and zero-copy sends/receives (Section 2.3.1 of the paper).
//
// Protection changes route through the fault backend that was active when
// the set was created: mprotect under kSigsegv, or userfaultfd pte
// operations (zap / continue / write-protect) under kUserfaultfd, where the
// views stay PROT_READ|PROT_WRITE and the shadow table remains the single
// source of truth either way.

#ifndef SRC_MULTIVIEW_VIEW_SET_H_
#define SRC_MULTIVIEW_VIEW_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/multiview/minipage.h"
#include "src/os/fault_handler.h"
#include "src/os/mapping.h"
#include "src/os/memory_object.h"
#include "src/os/page.h"
#include "src/os/protection.h"

namespace millipage {

class ViewSet {
 public:
  // Creates the memory object (object_size bytes, page-rounded) and maps
  // num_app_views application views (initially NoAccess) plus the privileged
  // view (ReadWrite). The views are wired to whichever fault backend
  // FaultHandler::active_backend() reports at creation time.
  static Result<std::unique_ptr<ViewSet>> Create(size_t object_size, uint32_t num_app_views);

  ~ViewSet();

  uint32_t num_app_views() const { return static_cast<uint32_t>(app_views_.size()); }
  size_t object_size() const { return object_.size(); }
  size_t vpages_per_view() const { return object_.size() / PageSize(); }

  std::byte* app_base(uint32_t view) const { return app_views_[view].base(); }
  std::byte* priv_base() const { return priv_view_.base(); }

  // Application-view address of (view, object offset), and the privileged
  // address of an object offset — the paper's addr2priv translation.
  std::byte* AppAddr(uint32_t view, uint64_t offset) const {
    return app_views_[view].base() + offset;
  }
  std::byte* PrivAddr(uint64_t offset) const { return priv_view_.base() + offset; }

  // Resolves a pointer that may lie in any application view of this set.
  // Returns false if the address is outside every application view.
  bool Resolve(const void* addr, uint32_t* view, uint64_t* offset) const;

  // True if addr lies in any application view.
  bool ContainsAppAddr(const void* addr) const {
    uint32_t v;
    uint64_t o;
    return Resolve(addr, &v, &o);
  }

  // Sets the protection of every vpage the minipage occupies, in its
  // associated view, and records it in the shadow table. No-op (no syscall,
  // no counter, no trace) when the shadow already shows the target
  // protection for the whole range.
  Status SetProtection(const Minipage& mp, Protection prot);

  // Applies one protection change to `count` minipages, collapsing
  // contiguous (or overlapping) same-view vpage runs into a single ranged
  // protection call each — a grant or invalidation round touching N adjacent
  // vpages costs one mprotect/uffd ioctl instead of N. `prot_sets_` counts
  // once per ranged call, so the counter is the proof of the coalescing.
  Status SetProtectionBatch(const Minipage* mps, size_t count, Protection prot);

  // Shadow-table read (the Table 1 "get protection" operation).
  Protection GetProtection(const Minipage& mp) const;

  // Shadow protection of one vpage in one view (used by prefetch, which has
  // no minipage descriptor on non-manager hosts).
  Protection GetVpageProtection(uint32_t view, uint64_t vpage) const {
    return static_cast<Protection>(shadow_[view][vpage].load(std::memory_order_acquire));
  }

  // Fault backend this set was created under.
  FaultBackend fault_backend() const {
    return uffd_ ? FaultBackend::kUserfaultfd : FaultBackend::kSigsegv;
  }

  // Protects every vpage of every application view (bulk setup).
  Status ProtectAllAppViews(Protection prot);

  // Attaches a history recorder: every successful SetProtection emits a
  // kProtSet event stamped with this host id. nullptr detaches.
  void SetTrace(TraceSink* trace, uint16_t host) {
    trace_ = trace;
    trace_host_ = host;
  }

  // Re-homes the mv.* metrics into `registry` (DsmNode points them at its
  // per-host registry; standalone view sets default to the process-global
  // one). Counters only on this path — a scoped timer would be a measurable
  // fraction of a single-page mprotect; the mprotect latency curve lives in
  // bench_micro_primitives instead.
  void SetMetrics(MetricsRegistry* registry) { metrics_ = registry; }

 private:
  ViewSet() = default;

  // One ranged protection change over [first_vpage, last_vpage] of `view`,
  // routed to mprotect or the uffd pte operations by backend mode.
  Status ApplyProtection(uint32_t view, uint64_t first_vpage, uint64_t last_vpage,
                         Protection prot);

  // True if every vpage of the minipage already shows `prot` in the shadow.
  bool RangeAlreadyAt(const Minipage& mp, Protection prot) const;

  void TraceProtSet(const Minipage& mp, Protection prot) {
    if (trace_ != nullptr) {
      // addr uses the GlobalAddr packing (view << 48 | offset) without
      // pulling in the net layer.
      trace_->Emit(TraceEventKind::kProtSet, trace_host_, mp.id,
                   (static_cast<uint64_t>(mp.view) << 48) | mp.offset,
                   static_cast<uint64_t>(prot));
    }
  }

  MemoryObject object_;
  std::vector<Mapping> app_views_;
  Mapping priv_view_;
  bool uffd_ = false;
  // Shadow protection, one byte per (view, vpage). Concurrent readers and
  // the per-minipage-serialized writers use relaxed atomics.
  std::vector<std::unique_ptr<std::atomic<uint8_t>[]>> shadow_;

  TraceSink* trace_ = nullptr;
  uint16_t trace_host_ = 0;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace millipage

#endif  // SRC_MULTIVIEW_VIEW_SET_H_
