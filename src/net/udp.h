// Minimal POSIX UDP socket wrapper (IPv4), enough for the cluster
// substrate: bind, sendto, recvfrom with a timeout or without waiting. Throws std::system_error
// on setup failures; data-path errors are returned, not thrown (a dropped
// datagram is a normal event for this transport).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hds::net {

struct UdpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  friend bool operator==(const UdpEndpoint&, const UdpEndpoint&) = default;
};

class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  // Binds to `ep` (port 0 = ephemeral; local_port() reports the outcome)
  // and arms a receive timeout so recv() polls rather than blocks forever.
  void open(const UdpEndpoint& ep, int recv_timeout_ms = 100);
  void close();
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  // The descriptor, for poll(); -1 when closed.
  [[nodiscard]] int fd() const { return fd_; }

  // True when the full datagram was handed to the kernel. Oversized or
  // transient failures return false (counted by the caller as wire loss).
  bool send_to(const UdpEndpoint& ep, const std::uint8_t* data, std::size_t len);

  // One datagram, or nullopt on timeout / transient error. `buf` is resized
  // to the received length (max 64 KiB). wait = false returns at once when
  // nothing is queued.
  std::optional<std::size_t> recv(std::vector<std::uint8_t>& buf, bool wait = true);

  // Same, also reporting the sender — for request/response services (the
  // admin channel) that must address a reply.
  std::optional<std::size_t> recv_from(std::vector<std::uint8_t>& buf, UdpEndpoint& from);

 private:
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
};

}  // namespace hds::net
