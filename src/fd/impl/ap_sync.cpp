#include "fd/impl/ap_sync.h"

namespace hds {

void APCore::on_step_count(SimTime t, std::size_t count) {
  if (count == 0) return;  // cannot happen for an alive process (self-loop)
  anap_ = count;
  trace_.record(t, anap_);
}

APComponent::APComponent(SimTime step_len) : step_len_(step_len) {}

void APComponent::on_start(Env& env) { begin_step(env); }

void APComponent::begin_step(Env& env) {
  env.broadcast(make_message(kMsgType, ApAliveMsg{}));
  step_timer_ = env.set_timer(step_len_);
}

void APComponent::on_message(Env&, const Message& m) {
  if (m.type == kMsgType) ++pending_;
}

void APComponent::on_timer(Env& env, TimerId id) {
  if (id != step_timer_) return;
  core_.on_step_count(env.local_now(), pending_);
  pending_ = 0;
  begin_step(env);
}

}  // namespace hds
