#include "obs/window_qos.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace hds::obs {

WindowQos::WindowQos(WindowQosConfig cfg)
    : cfg_(std::move(cfg)), correct_ids_(cfg_.gt.correct_ids()) {
  if (cfg_.width <= 0) throw std::invalid_argument("WindowQos: width must be positive");
  if (cfg_.windows == 0) throw std::invalid_argument("WindowQos: need at least one sub-window");
  for (ProcIndex i = 0; i < cfg_.gt.n(); ++i) {
    ++all_mult_[cfg_.gt.ids[i]];
    if (i < cfg_.crash_at.size() && cfg_.crash_at[i] >= 0) {
      crash_times_[cfg_.gt.ids[i]].push_back(cfg_.crash_at[i]);
    }
  }
  for (auto& [id, times] : crash_times_) {
    (void)id;
    std::sort(times.begin(), times.end());
  }
  proxies_.reserve(cfg_.gt.n());
  for (ProcIndex i = 0; i < cfg_.gt.n(); ++i) {
    auto proxy = std::make_unique<ProcListener>();
    proxy->owner = this;
    proxy->proc = i;
    proxies_.push_back(std::move(proxy));
  }
  ring_.resize(cfg_.windows);
  obs_.resize(cfg_.gt.n());
}

FdOutputListener* WindowQos::listener(ProcIndex i) {
  if (i >= proxies_.size()) throw std::out_of_range("WindowQos::listener: bad proc index");
  return proxies_[i].get();
}

WindowQos::Bucket& WindowQos::advance(SimTime at) {
  if (at < 0) at = 0;
  std::int64_t idx = at / cfg_.width;
  const auto windows = static_cast<std::int64_t>(cfg_.windows);
  if (cur_idx_ < 0) {
    cur_idx_ = idx;
  } else if (idx > cur_idx_) {
    if (idx - cur_idx_ >= windows) {
      for (Bucket& b : ring_) b = Bucket{};
    } else {
      for (std::int64_t i = cur_idx_ + 1; i <= idx; ++i) ring_[i % windows] = Bucket{};
    }
    cur_idx_ = idx;
  } else if (idx < cur_idx_) {
    // A straggler timestamp (clock skew between NetSystem nodes): clamp
    // into the oldest live sub-window rather than corrupt a recycled slot.
    idx = std::max<std::int64_t>(0, std::max(idx, cur_idx_ - windows + 1));
  }
  return ring_[idx % windows];
}

void WindowQos::trusted_changed(ProcIndex p, SimTime at, const Multiset<Id>& m) {
  std::lock_guard lk(mu_);
  Bucket& b = advance(at);
  ++b.events;
  ++total_events_;
  ObserverState& o = obs_[p];

  // Detection latency: for each label with crashes due by `at`, the observed
  // multiplicity deficit caps how many of those crashes count as detected.
  for (const auto& [x, times] : crash_times_) {
    const auto crashed = static_cast<std::size_t>(
        std::upper_bound(times.begin(), times.end(), at) - times.begin());
    if (crashed == 0) continue;
    const std::size_t observed = m.multiplicity(x);
    const std::size_t mult_all = all_mult_.at(x);
    const std::size_t deficit = mult_all > observed ? mult_all - observed : 0;
    const std::size_t detectable = std::min(crashed, deficit);
    std::size_t& done = o.detected[x];
    while (done < detectable) {
      const SimTime lat = at - times[done];
      ++done;
      ++b.det_count;
      b.det_lat_sum += static_cast<std::uint64_t>(lat);
      b.det_lat_max = std::max(b.det_lat_max, lat);
    }
  }

  const bool mistaken = !correct_ids_.is_subset_of(m);
  if (mistaken && !o.mistaken) {
    o.mistaken = true;
    o.mistake_since = at;
    ++b.mistake_entries;
  } else if (!mistaken && o.mistaken) {
    o.mistaken = false;
    b.mistake_time += std::max<SimTime>(0, at - o.mistake_since);
  }
}

void WindowQos::homega_changed(ProcIndex p, SimTime at, const HOmegaOut& out) {
  std::lock_guard lk(mu_);
  Bucket& b = advance(at);
  ++b.events;
  ++total_events_;
  ObserverState& o = obs_[p];
  if (o.homega_seen && !(o.last_homega == out)) ++b.flaps;
  o.homega_seen = true;
  o.last_homega = out;
}

void WindowQos::hsigma_changed(ProcIndex p, SimTime at, const HSigmaSnapshot& snap) {
  (void)p;
  std::lock_guard lk(mu_);
  Bucket& b = advance(at);
  ++b.events;
  ++total_events_;
  for (const auto& [x, q] : snap.quora) {
    (void)x;
    if (seen_quora_.contains(q)) continue;
    auto min_margin = static_cast<std::ptrdiff_t>(q.size());  // self-pair
    for (const Multiset<Id>& s : seen_quora_) {
      min_margin = std::min(min_margin, static_cast<std::ptrdiff_t>(q.intersection(s).size()));
    }
    if (b.margin_min < 0 || min_margin < b.margin_min) b.margin_min = min_margin;
    seen_quora_.insert(q);
  }
}

WindowQosStats WindowQos::aggregate_locked() const {
  WindowQosStats s;
  if (cur_idx_ < 0) return s;
  const auto windows = static_cast<std::int64_t>(cfg_.windows);
  const std::int64_t first = std::max<std::int64_t>(0, cur_idx_ - windows + 1);
  s.window_start = first * cfg_.width;
  s.window_end = (cur_idx_ + 1) * cfg_.width;
  std::uint64_t lat_sum = 0;
  for (std::int64_t i = first; i <= cur_idx_; ++i) {
    const Bucket& b = ring_[i % windows];
    s.events += b.events;
    s.detections += b.det_count;
    lat_sum += b.det_lat_sum;
    s.detection_latency_max = std::max(s.detection_latency_max, b.det_lat_max);
    s.mistake_intervals += b.mistake_entries;
    s.mistake_time += b.mistake_time;
    s.homega_flaps += b.flaps;
    if (b.margin_min >= 0 && (s.quorum_margin_min < 0 || b.margin_min < s.quorum_margin_min)) {
      s.quorum_margin_min = b.margin_min;
    }
  }
  if (s.detections > 0) {
    s.detection_latency_mean = static_cast<double>(lat_sum) / static_cast<double>(s.detections);
  }
  for (const ObserverState& o : obs_) {
    if (o.mistaken) ++s.mistakes_open;
  }
  return s;
}

void WindowQos::refresh_gauges(const WindowQosStats& s) {
  if (cfg_.metrics == nullptr) return;
  if (g_end_ == nullptr) {
    MetricsRegistry& r = *cfg_.metrics;
    g_end_ = &r.gauge("qos_window_end");
    g_events_ = &r.gauge("qos_window_events");
    g_detections_ = &r.gauge("qos_window_detections");
    g_det_mean_ = &r.gauge("qos_window_detection_latency_mean");
    g_det_max_ = &r.gauge("qos_window_detection_latency_max");
    g_mistake_intervals_ = &r.gauge("qos_window_mistake_intervals");
    g_mistake_time_ = &r.gauge("qos_window_mistake_time");
    g_mistakes_open_ = &r.gauge("qos_window_mistakes_open");
    g_flaps_ = &r.gauge("qos_window_homega_flaps");
    g_margin_min_ = &r.gauge("qos_window_quorum_margin_min");
  }
  g_end_->set(s.window_end);
  g_events_->set(static_cast<std::int64_t>(s.events));
  g_detections_->set(static_cast<std::int64_t>(s.detections));
  g_det_mean_->set(std::llround(s.detection_latency_mean));
  g_det_max_->set(s.detection_latency_max);
  g_mistake_intervals_->set(static_cast<std::int64_t>(s.mistake_intervals));
  g_mistake_time_->set(s.mistake_time);
  g_mistakes_open_->set(static_cast<std::int64_t>(s.mistakes_open));
  g_flaps_->set(static_cast<std::int64_t>(s.homega_flaps));
  g_margin_min_->set(s.quorum_margin_min);
}

WindowQosStats WindowQos::stats() {
  std::lock_guard lk(mu_);
  const WindowQosStats s = aggregate_locked();
  refresh_gauges(s);
  return s;
}

Json WindowQos::json() {
  std::lock_guard lk(mu_);
  Json doc = Json::object();
  doc["width"] = cfg_.width;
  doc["windows"] = cfg_.windows;
  Json events = Json::array();
  Json detections = Json::array();
  Json mistake_time = Json::array();
  Json mistake_intervals = Json::array();
  Json flaps = Json::array();
  Json margin_min = Json::array();
  if (cur_idx_ >= 0) {
    const auto windows = static_cast<std::int64_t>(cfg_.windows);
    const std::int64_t first = std::max<std::int64_t>(0, cur_idx_ - windows + 1);
    doc["window_end"] = (cur_idx_ + 1) * cfg_.width;
    for (std::int64_t i = first; i <= cur_idx_; ++i) {
      const Bucket& b = ring_[i % windows];
      events.push_back(b.events);
      detections.push_back(b.det_count);
      mistake_time.push_back(b.mistake_time);
      mistake_intervals.push_back(b.mistake_entries);
      flaps.push_back(b.flaps);
      margin_min.push_back(b.margin_min);
    }
  } else {
    doc["window_end"] = 0;
  }
  doc["events"] = std::move(events);
  doc["detections"] = std::move(detections);
  doc["mistake_time"] = std::move(mistake_time);
  doc["mistake_intervals"] = std::move(mistake_intervals);
  doc["flaps"] = std::move(flaps);
  doc["margin_min"] = std::move(margin_min);
  return doc;
}

}  // namespace hds::obs
