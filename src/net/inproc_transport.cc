#include "src/net/inproc_transport.h"

#include <chrono>
#include <cstring>

#include "src/common/metrics.h"

namespace millipage {

InProcTransport::InProcTransport(uint16_t num_hosts) {
  boxes_.reserve(num_hosts);
  for (uint16_t i = 0; i < num_hosts; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

Status InProcTransport::Send(HostId to, MsgHeader h, const void* payload, size_t len) {
  if (to >= boxes_.size()) {
    return Status::Invalid("InProcTransport::Send: bad destination host");
  }
  // One Send = one datagram, whatever it carries — a batched frame's N
  // records land in a single sample, which is the point of batching.
  send_bytes_.Record(sizeof(MsgHeader) + len);
  Item item;
  if (payload != nullptr && len > 0) {
    h.flags |= kFlagHasPayload;
    h.pgsize = static_cast<uint32_t>(len);
    item.payload.resize(len);
    std::memcpy(item.payload.data(), payload, len);
  }
  item.h = h;
  Mailbox& box = *boxes_[to];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.q.push_back(std::move(item));
  }
  box.cv.notify_one();
  return Status::Ok();
}

Result<bool> InProcTransport::Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                                   uint64_t timeout_us) {
  if (me >= boxes_.size()) {
    return Status::Invalid("InProcTransport::Poll: bad host");
  }
  Mailbox& box = *boxes_[me];
  Item item;
  {
    std::unique_lock<std::mutex> lock(box.mu);
    if (box.q.empty()) {
      if (timeout_us == 0) {
        return false;
      }
      if (!box.cv.wait_for(lock, std::chrono::microseconds(timeout_us),
                           [&box] { return !box.q.empty(); })) {
        return false;
      }
    }
    item = std::move(box.q.front());
    box.q.pop_front();
  }
  *h = item.h;
  if (item.h.has_payload()) {
    std::byte* dst = sink(item.h);
    if (dst != nullptr) {
      std::memcpy(dst, item.payload.data(), item.payload.size());
    }
  }
  return true;
}

}  // namespace millipage
