// Compatibility shim: SocketTransport is the only mesh transport (DESIGN.md
// §11). perfbench/bench.cc still includes this header and names
// DsmConfig::transport_backend, TransportBackend::kUring and
// UringTransportSupported() in its "# config" line, so those names stay, as
// constants, until perfbench drops them.

#ifndef SRC_NET_TRANSPORT_FACTORY_H_
#define SRC_NET_TRANSPORT_FACTORY_H_

#include <cstdint>

namespace millipage {

enum class TransportBackend : uint8_t { kSocket, kUring };

constexpr bool UringTransportSupported() { return false; }

}  // namespace millipage

#endif  // SRC_NET_TRANSPORT_FACTORY_H_
