#include "smr/instance_manager.h"

#include <utility>

namespace hds::smr {

const InstanceManager::Slot* InstanceManager::find(std::int64_t s) const {
  auto it = slots_.find(s);
  return it == slots_.end() ? nullptr : &it->second;
}

MajorityHOmegaConsensus* InstanceManager::get_or_create(std::int64_t s, Value proposal,
                                                        const HOmegaHandle& fd, Env& env) {
  Slot& rec = slots_[s];
  if (rec.engine != nullptr) return rec.engine.get();
  MajorityConsensusConfig cfg;
  cfg.n = cfg_.n;
  cfg.t = cfg_.t;
  cfg.proposal = proposal;
  cfg.guard_poll = cfg_.guard_poll;
  cfg.instance = s;
  rec.engine = std::make_unique<MajorityHOmegaConsensus>(cfg, fd);
  ++engines_created_;
  rec.engine->on_start(env);
  // Replay what arrived before the engine existed; the engine's own
  // instance filter re-checks each message, so a stray buffer entry is
  // harmless.
  std::vector<Message> pending = std::move(rec.buffered);
  rec.buffered.clear();
  for (const Message& m : pending) rec.engine->on_message(env, m);
  return rec.engine.get();
}

bool InstanceManager::buffer_message(std::int64_t s, const Message& m) {
  Slot& rec = slots_[s];
  if (rec.committed || rec.buffered.size() >= cfg_.max_buffered) return false;
  rec.buffered.push_back(m);
  return true;
}

std::size_t InstanceManager::gc(std::int64_t frontier, std::int64_t keep) {
  std::size_t erased = 0;
  for (auto it = slots_.begin(); it != slots_.end() && it->first <= frontier;) {
    Slot& rec = it->second;
    rec.engine.reset();
    rec.buffered.clear();
    rec.buffered.shrink_to_fit();
    if (it->first <= frontier - keep) {
      it = slots_.erase(it);
      ++erased;
      ++records_gced_;
    } else {
      ++it;
    }
  }
  return erased;
}

std::size_t InstanceManager::open_above(std::int64_t frontier) const {
  std::size_t open = 0;
  for (auto it = slots_.upper_bound(frontier); it != slots_.end(); ++it) {
    if (it->second.has_entry || it->second.engine != nullptr) ++open;
  }
  return open;
}

}  // namespace hds::smr
