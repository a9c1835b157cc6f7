#include "net/net_system.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <system_error>

#include "obs/profiler.h"

namespace hds::net {

namespace {

using Clock = std::chrono::steady_clock;

// Datagrams read per wake-up before due timers get their turn.
constexpr int kRecvBurst = 64;

}  // namespace

NetSystem::NetSystem(NetConfig cfg) : core_(cfg, Clock::now()) {
  epoch_wall_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  for (const NetPeer& p : cfg.peers) endpoints_.push_back(p.ep);
  sock_.open(endpoints_[self()]);
  endpoints_[self()].port = sock_.local_port();  // resolve an ephemeral bind
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw std::system_error(errno, std::generic_category(), "NetSystem: eventfd");
  thread_ = std::thread([this] { run(); });
}

NetSystem::~NetSystem() {
  stop();
  ::close(wake_fd_);
}

void NetSystem::set_peer_endpoint(ProcIndex i, const UdpEndpoint& ep) {
  std::lock_guard lk(mu_);
  if (core_.started()) throw std::logic_error("NetSystem: set_peer_endpoint after start");
  if (i == self()) throw std::logic_error("NetSystem: cannot rewire self");
  endpoints_.at(i) = ep;
}

void NetSystem::set_process(std::unique_ptr<Process> p) {
  std::lock_guard lk(mu_);
  core_.set_process(std::move(p));
}

void NetSystem::set_interposer(LinkInterposer* li) {
  std::lock_guard lk(mu_);
  if (core_.started()) throw std::logic_error("NetSystem: set_interposer after start");
  core_.set_interposer(li);
}

bool NetSystem::await_peers(std::chrono::milliseconds timeout) {
  std::unique_lock lk(mu_);
  core_.probe_peers(Clock::now());
  wake();
  return cv_.wait_for(lk, timeout, [this] { return core_.peers_heard(); });
}

void NetSystem::start() {
  {
    std::lock_guard lk(mu_);
    core_.start(Clock::now());
  }
  cv_.notify_all();
  wake();
}

void NetSystem::crash() {
  {
    std::lock_guard lk(mu_);
    core_.crash();
  }
  cv_.notify_all();
}

bool NetSystem::is_crashed() const {
  std::lock_guard lk(mu_);
  return core_.crashed();
}

void NetSystem::wake() {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof one);
}

void NetSystem::transmit() {
  for (const Datagram& d : core_.take_datagrams()) {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kUdpSend);
    core_.sent(d, sock_.send_to(endpoints_[d.to], d.bytes.data(), d.bytes.size()));
  }
}

void NetSystem::run() {
  std::vector<std::uint8_t> buf;
  std::unique_lock lk(mu_);
  while (!stopping_) {
    const bool heard = core_.peers_heard();
    for (int k = 0; k < kRecvBurst; ++k) {
      const auto len = sock_.recv(buf, /*wait=*/false);
      if (!len) break;
      core_.on_datagram(buf.data(), *len, Clock::now());
    }
    if (!heard && core_.peers_heard()) cv_.notify_all();
    core_.advance(Clock::now());
    transmit();
    const auto deadline = core_.next_deadline();
    lk.unlock();
    pollfd fds[2] = {{sock_.fd(), POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    timespec ts{};
    timespec* timeout = nullptr;
    if (deadline) {
      const auto wait = std::max(*deadline - Clock::now(), Clock::duration::zero());
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
      timeout = &ts;
    }
    (void)::ppoll(fds, 2, timeout, nullptr);
    if ((fds[1].revents & POLLIN) != 0) {
      std::uint64_t drained = 0;
      (void)!::read(wake_fd_, &drained, sizeof drained);
    }
    lk.lock();
  }
  // A clean shutdown loses nothing that was queued.
  core_.flush();
  transmit();
}

bool NetSystem::wait_for(const std::function<bool()>& pred, std::chrono::milliseconds timeout,
                         std::chrono::milliseconds poll) {
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(poll);
  }
  return pred();
}

NetNetworkStats NetSystem::net_stats() {
  std::lock_guard lk(mu_);
  return core_.net_stats();
}

RelStats NetSystem::rel_stats() {
  std::lock_guard lk(mu_);
  return core_.rel_stats();
}

std::vector<TraceEvent> NetSystem::drain_trace(std::uint64_t& cursor) {
  std::lock_guard lk(mu_);
  return core_.trace().drain_since(cursor);
}

std::vector<TraceEvent> NetSystem::trace_events() {
  std::lock_guard lk(mu_);
  return core_.trace().events();
}

std::uint64_t NetSystem::trace_dropped() {
  std::lock_guard lk(mu_);
  return core_.trace().dropped();
}

void NetSystem::stop() {
  {
    std::lock_guard lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  sock_.close();
}

}  // namespace hds::net
