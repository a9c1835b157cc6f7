#include "net/udp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

namespace hds::net {

namespace {

sockaddr_in to_sockaddr(const UdpEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw std::system_error(EINVAL, std::generic_category(),
                            "UdpSocket: bad IPv4 address " + ep.host);
  }
  return addr;
}

[[noreturn]] void fail(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

UdpSocket::~UdpSocket() { close(); }

void UdpSocket::open(const UdpEndpoint& ep, int recv_timeout_ms) {
  if (fd_ >= 0) throw std::logic_error("UdpSocket: already open");
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) fail("UdpSocket: socket");
  // A burst of n^2 reply broadcasts can outrun a default-sized buffer;
  // ask for headroom (the kernel may clamp; best effort).
  const int rcvbuf = 1 << 21;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval tv{};
  tv.tv_sec = recv_timeout_ms / 1000;
  tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  sockaddr_in addr = to_sockaddr(ep);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close();
    throw std::system_error(err, std::generic_category(),
                            "UdpSocket: bind " + ep.host + ":" + std::to_string(ep.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) fail("getsockname");
  local_port_ = ntohs(bound.sin_port);
}

void UdpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool UdpSocket::send_to(const UdpEndpoint& ep, const std::uint8_t* data, std::size_t len) {
  if (fd_ < 0) return false;
  sockaddr_in addr = to_sockaddr(ep);
  const ssize_t n =
      ::sendto(fd_, data, len, 0, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  return n == static_cast<ssize_t>(len);
}

std::optional<std::size_t> UdpSocket::recv(std::vector<std::uint8_t>& buf, bool wait) {
  if (fd_ < 0) return std::nullopt;
  buf.resize(64 * 1024);
  const ssize_t n =
      ::recvfrom(fd_, buf.data(), buf.size(), wait ? 0 : MSG_DONTWAIT, nullptr, nullptr);
  if (n < 0) return std::nullopt;  // timeout or transient error: caller re-polls
  buf.resize(static_cast<std::size_t>(n));
  return static_cast<std::size_t>(n);
}

std::optional<std::size_t> UdpSocket::recv_from(std::vector<std::uint8_t>& buf, UdpEndpoint& from) {
  if (fd_ < 0) return std::nullopt;
  buf.resize(64 * 1024);
  sockaddr_in peer{};
  socklen_t peer_len = sizeof(peer);
  const ssize_t n =
      ::recvfrom(fd_, buf.data(), buf.size(), 0, reinterpret_cast<sockaddr*>(&peer), &peer_len);
  if (n < 0) return std::nullopt;
  buf.resize(static_cast<std::size_t>(n));
  char host[INET_ADDRSTRLEN] = {};
  if (inet_ntop(AF_INET, &peer.sin_addr, host, sizeof(host)) != nullptr) from.host = host;
  from.port = ntohs(peer.sin_port);
  return static_cast<std::size_t>(n);
}

}  // namespace hds::net
