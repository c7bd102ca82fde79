#include "src/multiview/view_set.h"

#include <algorithm>
#include <cstring>

#include "src/common/failpoint.h"

namespace millipage {

Result<std::unique_ptr<ViewSet>> ViewSet::Create(size_t object_size, uint32_t num_app_views) {
  if (num_app_views == 0) {
    return Status::Invalid("ViewSet needs at least one application view");
  }
  auto vs = std::unique_ptr<ViewSet>(new ViewSet());
  MP_ASSIGN_OR_RETURN(vs->object_, MemoryObject::Create(object_size));
  const size_t len = vs->object_.size();
  FaultHandler& fh = FaultHandler::Instance();
  vs->uffd_ = fh.active_backend() == FaultBackend::kUserfaultfd;
  MP_ASSIGN_OR_RETURN(vs->priv_view_,
                      Mapping::MapObject(vs->object_, 0, len, Protection::kReadWrite));
  if (vs->uffd_) {
    // Instantiate every object page in the page cache up front:
    // UFFDIO_CONTINUE can only install ptes for pages that already exist
    // there, and a fresh memfd is fully hole. The store is through the
    // privileged view, so the zero-fill semantics are unchanged.
    std::memset(vs->priv_view_.base(), 0, len);
  }
  vs->app_views_.reserve(num_app_views);
  for (uint32_t v = 0; v < num_app_views; ++v) {
    // uffd mode keeps the VMA PROT_READ|PROT_WRITE forever; "NoAccess" is a
    // zapped pte (minor fault on touch) and "ReadOnly" a write-protect bit.
    MP_ASSIGN_OR_RETURN(
        Mapping m, Mapping::MapObject(vs->object_, 0, len,
                                      vs->uffd_ ? Protection::kReadWrite
                                                : Protection::kNoAccess));
    if (vs->uffd_) {
      MP_RETURN_IF_ERROR(fh.UffdRegisterRange(m.base(), len));
      MP_RETURN_IF_ERROR(fh.UffdZapRange(m.base(), len));  // start NoAccess
    }
    vs->app_views_.push_back(std::move(m));
  }
  const size_t vpages = len / PageSize();
  vs->shadow_.reserve(num_app_views);
  for (uint32_t v = 0; v < num_app_views; ++v) {
    auto arr = std::make_unique<std::atomic<uint8_t>[]>(vpages);
    for (size_t i = 0; i < vpages; ++i) {
      arr[i].store(static_cast<uint8_t>(Protection::kNoAccess), std::memory_order_relaxed);
    }
    vs->shadow_.push_back(std::move(arr));
  }
  vs->SetMetrics(&MetricsRegistry::Global());
  return vs;
}

ViewSet::~ViewSet() {
  if (uffd_) {
    FaultHandler& fh = FaultHandler::Instance();
    for (Mapping& m : app_views_) {
      if (m.valid()) {
        // Unregister before munmap so no fault event can arrive for a range
        // the resolver no longer claims. Best-effort: the munmap below
        // removes the registration anyway.
        (void)fh.UffdUnregisterRange(m.base(), m.length());
      }
    }
  }
}

bool ViewSet::Resolve(const void* addr, uint32_t* view, uint64_t* offset) const {
  const auto a = reinterpret_cast<uintptr_t>(addr);
  for (uint32_t v = 0; v < app_views_.size(); ++v) {
    const Mapping& m = app_views_[v];
    if (a >= m.base_addr() && a < m.base_addr() + m.length()) {
      *view = v;
      *offset = a - m.base_addr();
      return true;
    }
  }
  return false;
}

Status ViewSet::ApplyProtection(uint32_t view, uint64_t first_vpage, uint64_t last_vpage,
                                Protection prot) {
  const size_t off = first_vpage * PageSize();
  const size_t len = (last_vpage - first_vpage + 1) * PageSize();
  if (!uffd_) {
    return app_views_[view].Protect(off, len, prot);
  }
  // Chaos-hook parity with Mapping::Protect: the injected-failure site fires
  // at the same points in the SetProtection call sequence in both modes.
  if (FailpointRegistry::Instance().Fire("os.mapping.protect")) {
    return Status::Exhausted("uffd protect: injected failure (os.mapping.protect)");
  }
  FaultHandler& fh = FaultHandler::Instance();
  std::byte* base = app_views_[view].base() + off;
  switch (prot) {
    case Protection::kNoAccess:
      return fh.UffdZapRange(base, len);
    case Protection::kReadOnly:
      return fh.UffdEnsureRange(base, len, /*write_protect=*/true);
    case Protection::kReadWrite:
      return fh.UffdEnsureRange(base, len, /*write_protect=*/false);
  }
  return Status::Invalid("ApplyProtection: bad protection value");
}

bool ViewSet::RangeAlreadyAt(const Minipage& mp, Protection prot) const {
  for (uint64_t vp = mp.first_vpage(); vp <= mp.last_vpage(); ++vp) {
    if (static_cast<Protection>(shadow_[mp.view][vp].load(std::memory_order_acquire)) !=
        prot) {
      return false;
    }
  }
  return true;
}

Status ViewSet::SetProtection(const Minipage& mp, Protection prot) {
  if (mp.view >= app_views_.size()) {
    return Status::Invalid("SetProtection: view out of range");
  }
  // Idempotence fast-path: the shadow is the source of truth for pte state
  // (every change funnels through ApplyProtection), so a same-protection
  // call — a racing double fault, or a record a batched ranged call already
  // applied — costs no syscall.
  if (RangeAlreadyAt(mp, prot)) {
    return Status::Ok();
  }
  const uint64_t first = mp.first_vpage();
  const uint64_t last = mp.last_vpage();
  MP_RETURN_IF_ERROR(ApplyProtection(mp.view, first, last, prot));
  for (uint64_t vp = first; vp <= last; ++vp) {
    shadow_[mp.view][vp].store(static_cast<uint8_t>(prot), std::memory_order_release);
  }
  metrics_->Inc(Metric::kProtSets);
  metrics_->Inc(Metric::kProtSetPages, last - first + 1);
  TraceProtSet(mp, prot);
  return Status::Ok();
}

Status ViewSet::SetProtectionBatch(const Minipage* mps, size_t count, Protection prot) {
  if (count == 0) {
    return Status::Ok();
  }
  if (count == 1) {
    return SetProtection(mps[0], prot);
  }
  // Collect the minipages whose protection actually changes, sorted by
  // (view, first vpage) so contiguous runs are adjacent.
  std::vector<const Minipage*> todo;
  todo.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (mps[i].view >= app_views_.size()) {
      return Status::Invalid("SetProtectionBatch: view out of range");
    }
    if (!RangeAlreadyAt(mps[i], prot)) {
      todo.push_back(&mps[i]);
    }
  }
  if (todo.empty()) {
    return Status::Ok();
  }
  std::sort(todo.begin(), todo.end(), [](const Minipage* a, const Minipage* b) {
    if (a->view != b->view) {
      return a->view < b->view;
    }
    return a->first_vpage() < b->first_vpage();
  });
  // Merge touching/overlapping vpage ranges within a view and apply each
  // merged run with ONE ranged protection call.
  auto apply_run = [&](uint32_t view, uint64_t first, uint64_t last) -> Status {
    MP_RETURN_IF_ERROR(ApplyProtection(view, first, last, prot));
    for (uint64_t vp = first; vp <= last; ++vp) {
      shadow_[view][vp].store(static_cast<uint8_t>(prot), std::memory_order_release);
    }
    metrics_->Inc(Metric::kProtSets);
    metrics_->Inc(Metric::kProtSetPages, last - first + 1);
    return Status::Ok();
  };
  uint32_t run_view = todo[0]->view;
  uint64_t run_first = todo[0]->first_vpage();
  uint64_t run_last = todo[0]->last_vpage();
  for (size_t i = 1; i < todo.size(); ++i) {
    const Minipage& mp = *todo[i];
    if (mp.view == run_view && mp.first_vpage() <= run_last + 1) {
      run_last = std::max(run_last, mp.last_vpage());
      continue;
    }
    MP_RETURN_IF_ERROR(apply_run(run_view, run_first, run_last));
    run_view = mp.view;
    run_first = mp.first_vpage();
    run_last = mp.last_vpage();
  }
  MP_RETURN_IF_ERROR(apply_run(run_view, run_first, run_last));
  // Per-minipage trace events are preserved — the checker reasons about
  // minipages, not syscalls — in the deterministic sorted order.
  for (const Minipage* mp : todo) {
    TraceProtSet(*mp, prot);
  }
  return Status::Ok();
}

Protection ViewSet::GetProtection(const Minipage& mp) const {
  return static_cast<Protection>(
      shadow_[mp.view][mp.first_vpage()].load(std::memory_order_acquire));
}

Status ViewSet::ProtectAllAppViews(Protection prot) {
  const size_t vpages = vpages_per_view();
  for (uint32_t v = 0; v < app_views_.size(); ++v) {
    MP_RETURN_IF_ERROR(ApplyProtection(v, 0, vpages - 1, prot));
    for (size_t i = 0; i < vpages; ++i) {
      shadow_[v][i].store(static_cast<uint8_t>(prot), std::memory_order_relaxed);
    }
  }
  return Status::Ok();
}

}  // namespace millipage
