#include "chaos/injector.h"

#include <algorithm>

#include "sim/system.h"

namespace hds::chaos {

FaultInjector::FaultInjector(FaultPlan plan, std::vector<Id> ids, std::uint64_t seed)
    : plan_(std::move(plan)),
      ids_(std::move(ids)),
      rng_(seed),
      budget_used_(plan_.clauses.size(), 0),
      leaders_punished_(plan_.clauses.size()),
      quora_punished_(plan_.clauses.size()) {}

CopyVerdict FaultInjector::on_copy(SimTime now, ProcIndex from, ProcIndex to,
                                   const std::string& /*type*/) {
  CopyVerdict v;
  std::lock_guard lk(mu_);
  for (const FaultClause& c : plan_.clauses) {
    if (!is_link_kind(c.kind) || !c.active_at(now)) continue;
    if (!c.links.matches(from, to, ids_)) continue;
    switch (c.kind) {
      case ClauseKind::kPartition:
        v.drop = true;
        break;
      case ClauseKind::kLoss:
        if (rng_.chance(c.prob)) v.drop = true;
        break;
      case ClauseKind::kDelay:
        v.extra_delay += c.delay;
        break;
      case ClauseKind::kReorder:
        if (c.delay > 0) v.extra_delay += rng_.uniform(0, c.delay);
        break;
      case ClauseKind::kDuplicate:
        if (rng_.chance(c.prob)) {
          v.duplicates += c.count;
          v.duplicate_spread = std::max(v.duplicate_spread, c.delay);
        }
        break;
      default:
        break;
    }
    if (v.drop) break;  // a dropped copy needs no further shaping
  }
  if (v.drop) {
    ++stats_.copies_dropped;
    v.extra_delay = 0;
    v.duplicates = 0;
  } else {
    if (v.extra_delay > 0) ++stats_.copies_delayed;
    stats_.copies_duplicated += v.duplicates;
  }
  return v;
}

void FaultInjector::attach(System& sys) {
  sys.set_interposer(this);
  sys_ = &sys;
  for (const FaultClause& c : plan_.clauses) {
    if (c.kind != ClauseKind::kCrashAt) continue;
    const ProcIndex victim = c.proc;
    sys.scheduler().at(c.at, [&sys, victim] { sys.inject_crash(victim, "chaos:crash-at"); });
  }
}

FdOutputListener* FaultInjector::listener(ProcIndex /*i*/) {
  return plan_.has_triggers() ? &trigger_ : nullptr;
}

ProcIndex FaultInjector::lowest_alive_carrier(Id id) const {
  for (ProcIndex i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id && sys_ != nullptr && sys_->is_alive(i)) return i;
  }
  return static_cast<ProcIndex>(-1);
}

void FaultInjector::crash_now(ProcIndex victim, const std::string& why, SimTime at) {
  if (sys_ != nullptr) sys_->inject_crash(victim, why);
  std::lock_guard lk(mu_);
  ++stats_.crashes_injected;
  stats_.crash_log.push_back(why + " victim=" + std::to_string(victim) +
                             " at=" + std::to_string(at));
}

void FaultInjector::on_homega_event(SimTime at, const HOmegaOut& out) {
  if (out.leader == kBottomId && out.multiplicity == 0) return;
  std::vector<std::pair<ProcIndex, std::string>> todo;
  {
    std::lock_guard lk(mu_);
    for (std::size_t ci = 0; ci < plan_.clauses.size(); ++ci) {
      const FaultClause& c = plan_.clauses[ci];
      if (c.kind != ClauseKind::kCrashOnLeaderChange || !c.active_at(at)) continue;
      if (c.target_id != kBottomId && c.target_id != out.leader) continue;
      if (budget_used_[ci] >= c.count) continue;
      if (!leaders_punished_[ci].insert(out.leader).second) continue;  // already hit
      ++budget_used_[ci];
      todo.emplace_back(0, "chaos:crash-on-leader-change");
    }
  }
  for (auto& [victim, why] : todo) {
    victim = lowest_alive_carrier(out.leader);
    if (victim == static_cast<ProcIndex>(-1)) continue;
    crash_now(victim, why, at);
  }
}

void FaultInjector::on_hsigma_event(SimTime at, const HSigmaSnapshot& snap) {
  if (snap.quora.empty()) return;
  std::vector<std::pair<Id, std::string>> todo;
  {
    std::lock_guard lk(mu_);
    for (std::size_t ci = 0; ci < plan_.clauses.size(); ++ci) {
      const FaultClause& c = plan_.clauses[ci];
      if (c.kind != ClauseKind::kCrashOnQuorum || !c.active_at(at)) continue;
      for (const auto& [label, members] : snap.quora) {
        if (budget_used_[ci] >= c.count) break;
        if (members.empty()) continue;
        if (!quora_punished_[ci].insert(label).second) continue;  // already hit
        ++budget_used_[ci];
        todo.emplace_back(members.min(), "chaos:crash-on-quorum");
      }
    }
  }
  for (const auto& [id, why] : todo) {
    const ProcIndex victim = lowest_alive_carrier(id);
    if (victim == static_cast<ProcIndex>(-1)) continue;
    crash_now(victim, why, at);
  }
}

InjectorStats FaultInjector::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

}  // namespace hds::chaos
