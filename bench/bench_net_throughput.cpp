// UDP substrate throughput anchor: what does a real socket hop cost, and
// what does send batching buy back?
//
// Two groups:
//   - BM_Codec_RoundTrip prices the serialization layer alone
//     (encode_frame + decode_frame, no sockets) for a small body (ALIVE)
//     and the largest one (PH1Q with a label multiset).
//   - BM_Net_Burst drives two NetSystem nodes over loopback UDP: the
//     sender bursts HB broadcasts, the bench waits until the receiver has
//     delivered them all. Arg 0 = batching off (one datagram per copy),
//     arg 1 = batching on (frames coalesced per destination).
//
// BM_Net_Burst's time and items/s are wall time: the benchmark thread
// mostly waits for the receiver, so its CPU time says almost nothing.
//
// Reported counters: bytes_per_msg (datagram payload bytes per copy — the
// batching win shows up here as amortized envelope overhead) and
// frames_per_pkt (mean batch occupancy). With --metrics-json=PATH the
// sender's registry snapshot lands in PATH, including the
// udp_batch_frames / udp_batch_bytes histograms and the udp_bytes_*
// counter series EXPERIMENTS.md cites.
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/label.h"
#include "common/multiset.h"
#include "consensus/messages.h"
#include "fd/impl/alive_ranker.h"
#include "fd/impl/homega_heartbeat.h"
#include "net/codec.h"
#include "net/net_system.h"

namespace {

using namespace hds;
using namespace std::chrono_literals;

Message small_body() { return make_message(AliveRanker::kMsgType, AliveMsg{42}); }

Message large_body() {
  Multiset<Id> a;
  a.insert(1);
  a.insert(1);
  a.insert(2);
  Multiset<Id> b;
  b.insert(3);
  b.insert(4);
  return make_message(kPh1QType,
                      Ph1QMsg{7, 12, 6, {Label::of_multiset(a), Label::of_multiset(b)}, 103, 1});
}

// Arg: 0 = ALIVE (smallest registered body), 1 = PH1Q (largest).
void BM_Codec_RoundTrip(benchmark::State& state) {
  const Message m = state.range(0) == 0 ? small_body() : large_body();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto frame = net::encode_frame(net::builtin_codecs(), m, 2, 7);
    const Message back = net::decode_frame(net::builtin_codecs(), frame.data(), frame.size());
    benchmark::DoNotOptimize(back.type.data());
    bytes += frame.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Codec_RoundTrip)->Arg(0)->Arg(1);

// Broadcasts on demand under the node lock (send_burst runs via query, so
// it may use the Env captured at on_start); counts deliveries.
struct BurstProcess final : Process {
  void on_start(Env& env) override { env_ = &env; }
  void on_message(Env&, const Message& m) override {
    if (m.type == HOmegaHeartbeat::kMsgType) ++received;
  }
  void send_burst(std::size_t k) {
    for (std::size_t i = 0; i < k; ++i) {
      env_->broadcast(make_message(HOmegaHeartbeat::kMsgType, HeartbeatMsg{1, ++seq}));
    }
  }
  Env* env_ = nullptr;
  std::int64_t seq = 0;
  std::int64_t received = 0;
};

// Args: {batching off/on, ARQ reliability off/on}. The off/off and on/off
// rows price the plain substrate; on/on prices the reliable-delivery layer
// (sequence wrap + ack processing + retransmit timers) on a loss-free link,
// i.e. its pure overhead. CI floors BM_Net_Burst/1/0 against the committed
// baseline so the reliability seam costs nothing when off; the floor is the
// lowest measured wall-time ratio (docs/performance.md, ARQ-off gate).
void BM_Net_Burst(benchmark::State& state) {
  constexpr std::size_t kBurst = 256;
  std::vector<net::NetPeer> peers(2);
  peers[0].id = 1;
  peers[1].id = 2;
  std::vector<std::unique_ptr<net::NetSystem>> sys;
  for (std::size_t i = 0; i < 2; ++i) {
    net::NetConfig cfg;
    cfg.self = i;
    cfg.peers = peers;
    cfg.seed = 1 + i;
    cfg.batching = state.range(0) == 1;
    cfg.reliability.enabled = state.range(1) == 1;
    if (i == 0) cfg.metrics = hds::bench::metrics_sink();
    sys.push_back(std::make_unique<net::NetSystem>(std::move(cfg)));
  }
  sys[0]->set_peer_endpoint(1, net::UdpEndpoint{"127.0.0.1", sys[1]->local_port()});
  sys[1]->set_peer_endpoint(0, net::UdpEndpoint{"127.0.0.1", sys[0]->local_port()});
  std::vector<BurstProcess*> procs;
  for (auto& s : sys) {
    auto p = std::make_unique<BurstProcess>();
    procs.push_back(p.get());
    s->set_process(std::move(p));
  }
  for (auto& s : sys) {
    hds::bench::require(state, s->await_peers(5s), "peer barrier");
    if (state.error_occurred()) return;
  }
  for (auto& s : sys) s->start();

  std::int64_t sent = 0;
  for (auto _ : state) {
    sys[0]->query([&](Process&) {
      procs[0]->send_burst(kBurst);
      return 0;
    });
    sent += static_cast<std::int64_t>(kBurst);
    // UDP has no retransmission: a dropped burst (kernel buffer overflow)
    // would hang the wait, so fail loudly instead of reporting a lie.
    const bool ok = sys[1]->wait_for(
        [&] { return sys[1]->query([&](Process&) { return procs[1]->received; }) >= sent; }, 10s,
        1ms);
    hds::bench::require(state, ok, "burst fully delivered");
    if (state.error_occurred()) break;
  }

  const net::NetNetworkStats st = sys[0]->net_stats();
  for (auto& s : sys) s->stop();
  state.SetItemsProcessed(sent);
  if (st.copies_sent > 0) {
    state.counters["bytes_per_msg"] =
        static_cast<double>(st.bytes_sent) / static_cast<double>(st.copies_sent);
  }
  if (st.packets_sent > 0) {
    state.counters["frames_per_pkt"] =
        static_cast<double>(st.copies_sent) / static_cast<double>(st.packets_sent);
  }
  state.counters["decode_errors"] = static_cast<double>(st.decode_errors);
  if (state.range(1) == 1) {
    const net::RelStats rs = sys[0]->rel_stats();
    state.counters["rel_retransmits"] = static_cast<double>(rs.retransmits);
    state.counters["rel_acks_sent"] = static_cast<double>(rs.acks_sent);
    state.counters["rel_dup_frames"] = static_cast<double>(rs.dup_frames);
  }
}
BENCHMARK(BM_Net_Burst)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({1, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

HDS_BENCH_MAIN()
