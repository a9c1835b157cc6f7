#include "obs/monitor.h"

#include "obs/profiler.h"
#include "sim/system.h"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace hds::obs {

namespace {
// Intersection margin at or below which a quorum pair warns: one crash from
// disjoint.
constexpr std::ptrdiff_t kQuorumMarginWarn = 1;
}  // namespace

OnlineMonitor::OnlineMonitor(MonitorConfig cfg)
    : cfg_(std::move(cfg)), correct_ids_(cfg_.gt.correct_ids()) {
  proxies_.reserve(cfg_.gt.n());
  for (ProcIndex i = 0; i < cfg_.gt.n(); ++i) {
    auto proxy = std::make_unique<ProcListener>();
    proxy->owner = this;
    proxy->proc = i;
    proxies_.push_back(std::move(proxy));
  }
}

FdOutputListener* OnlineMonitor::listener(ProcIndex i) {
  if (i >= proxies_.size()) throw std::out_of_range("OnlineMonitor::listener: bad proc index");
  return proxies_[i].get();
}

void OnlineMonitor::attach(System& sys) {
  if (sys.trace().enabled()) causal_ = &sys.causal_session();
}

std::vector<MonitorEvent> OnlineMonitor::events() const {
  std::lock_guard lk(mu_);
  return events_;
}

std::size_t OnlineMonitor::violation_count() const {
  std::lock_guard lk(mu_);
  return violations_;
}

std::size_t OnlineMonitor::warning_count() const {
  std::lock_guard lk(mu_);
  return warnings_;
}

std::map<std::string, std::size_t> OnlineMonitor::counts_by_rule() const {
  std::lock_guard lk(mu_);
  std::map<std::string, std::size_t> out;
  for (const MonitorEvent& e : events_) ++out[e.rule];
  return out;
}

std::uint64_t OnlineMonitor::dropped() const {
  std::lock_guard lk(mu_);
  return dropped_;
}

void OnlineMonitor::emit(SimTime at, MonitorEvent::Severity sev, ProcIndex p, const char* rule,
                         std::string detail) {
  (sev == MonitorEvent::Severity::kViolation ? violations_ : warnings_)++;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics
        ->counter("monitor_events_total",
                  {{"severity",
                    sev == MonitorEvent::Severity::kViolation ? "violation" : "warning"},
                   {"rule", rule}})
        .inc();
  }
  if (cfg_.trace != nullptr) {
    // The mirrored event carries the lineage of whatever the dispatch loop
    // was delivering when the rule fired (0 when no causal session is wired).
    const std::uint64_t lineage = causal_ != nullptr ? causal_->parent : 0;
    cfg_.trace->record(at,
                       sev == MonitorEvent::Severity::kViolation
                           ? TraceEvent::Kind::kMonitorViolation
                           : TraceEvent::Kind::kMonitorWarn,
                       p, rule + std::string(": ") + detail, lineage);
  }
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(MonitorEvent{at, sev, p, rule, std::move(detail)});
}

void OnlineMonitor::trusted_changed(ProcIndex p, SimTime at, const Multiset<Id>& m) {
  HDS_PROF_SCOPE(ProfSubsystem::kMonitor);
  if (at < cfg_.watch_from) return;
  std::lock_guard lk(mu_);
  if (!correct_ids_.is_subset_of(m)) {
    std::ostringstream os;
    os << "h_trusted " << m << " misses a correct instance of " << correct_ids_;
    emit(at, MonitorEvent::Severity::kViolation, p, "suspect-correct", os.str());
  } else {
    std::ostringstream os;
    os << "h_trusted changed to " << m << " after watch_from";
    emit(at, MonitorEvent::Severity::kWarning, p, "late-change", os.str());
  }
}

void OnlineMonitor::homega_changed(ProcIndex p, SimTime at, const HOmegaOut& out) {
  HDS_PROF_SCOPE(ProfSubsystem::kMonitor);
  if (at < cfg_.watch_from) return;
  std::lock_guard lk(mu_);
  {
    std::ostringstream os;
    os << "leader changed to (" << out.leader << ", " << out.multiplicity
       << ") after watch_from";
    emit(at, MonitorEvent::Severity::kViolation, p, "leader-flap", os.str());
  }
  if (!correct_ids_.contains(out.leader)) {
    std::ostringstream os;
    os << "leader " << out.leader << " is carried by no correct process";
    emit(at, MonitorEvent::Severity::kWarning, p, "dead-leader", os.str());
  }
}

void OnlineMonitor::hsigma_changed(ProcIndex p, SimTime at, const HSigmaSnapshot& snap) {
  HDS_PROF_SCOPE(ProfSubsystem::kMonitor);
  // Quorum intersection is safety: judged from t = 0, not gated.
  std::lock_guard lk(mu_);
  for (const auto& [x, q] : snap.quora) {
    (void)x;
    if (seen_quora_.contains(q)) continue;
    // Compare the new quorum against every distinct quorum realized so far
    // (any process, any time) — the HΣ intersection property quantifies
    // over exactly those pairs.
    std::ptrdiff_t min_margin = static_cast<std::ptrdiff_t>(q.size());  // self-pair
    const Multiset<Id>* worst = &q;
    for (const Multiset<Id>& s : seen_quora_) {
      const auto margin = static_cast<std::ptrdiff_t>(q.intersection(s).size());
      if (margin < min_margin) {
        min_margin = margin;
        worst = &s;
      }
    }
    if (min_margin == 0) {
      std::ostringstream os;
      os << "quorum " << q << " is disjoint from realized quorum " << *worst;
      emit(at, MonitorEvent::Severity::kViolation, p, "quorum-disjoint", os.str());
    } else if (min_margin <= kQuorumMarginWarn) {
      std::ostringstream os;
      os << "quorum " << q << " intersects " << *worst << " in only " << min_margin
         << " instance(s)";
      emit(at, MonitorEvent::Severity::kWarning, p, "quorum-margin", os.str());
    }
    seen_quora_.insert(q);
  }
}

void OnlineMonitor::sigma_changed(ProcIndex p, SimTime at, const Multiset<Id>& m) {
  HDS_PROF_SCOPE(ProfSubsystem::kMonitor);
  if (at < cfg_.watch_from) return;
  std::lock_guard lk(mu_);
  if (!m.is_subset_of(correct_ids_)) {
    std::ostringstream os;
    os << "trusted " << m << " contains a crashed instance (correct = " << correct_ids_ << ")";
    emit(at, MonitorEvent::Severity::kViolation, p, "sigma-trust-crashed", os.str());
  }
}

}  // namespace hds::obs
