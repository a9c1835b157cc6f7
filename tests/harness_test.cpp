// Contract tests of the experiment harness: parameter validation, result
// structure invariants, and the relationships between reported quantities.
#include "consensus/harness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "consensus/messages.h"

namespace hds {
namespace {

TEST(Harness, ProposalSizeMismatchThrows) {
  Fig8OracleParams p;
  p.ids = ids_unique(4);
  p.t_known = 1;
  p.proposals = {1, 2};  // wrong size
  EXPECT_THROW(run_fig8_with_oracle(p), std::invalid_argument);
}

TEST(Harness, Fig6StabilizationNeverPrecedesGst) {
  Fig6Params p;
  p.ids = ids_homonymous(5, 2, 3);
  p.crashes = crashes_last_k(5, 2, 100, 9);
  p.net = {.gst = 200, .delta = 3, .pre_gst_loss = 0.4, .pre_gst_max_delay = 60};
  p.run_for = 4000;
  auto r = run_fig6(p);
  ASSERT_TRUE(r.ohp_check.ok) << r.ohp_check.detail;
  // With crashes at 100/109 and chaos until GST=200, the output cannot have
  // settled on I(Correct) before the crashes happened.
  EXPECT_GE(r.stabilization_time, 100);
  EXPECT_GT(r.broadcasts, 0u);
  EXPECT_GT(r.copies_delivered, 0u);
}

TEST(Harness, ConsensusResultAccountingIsConsistent) {
  Fig8OracleParams p;
  p.ids = ids_homonymous(6, 3, 5);
  p.t_known = 2;
  p.crashes = crashes_last_k(6, 2, 25, 9);
  p.fd_stabilize = 50;
  auto r = run_fig8_with_oracle(p);
  ASSERT_TRUE(r.check.ok) << r.check.detail;
  // Decision times never exceed the run end; rounds are positive.
  for (const auto& d : r.decisions) {
    if (d.decided) {
      EXPECT_LE(d.at, r.end_time);
      EXPECT_GE(d.round, 1);
      EXPECT_LE(d.at, r.last_decision_time);
    }
  }
  // Per-type accounting sums to the total broadcast count.
  std::uint64_t sum = 0;
  for (const auto& [type, c] : r.broadcasts_by_type) {
    (void)type;
    sum += c;
  }
  EXPECT_EQ(sum, r.broadcasts);
  // Fig. 8's phases all appear in the type map.
  for (const char* type : {kCoordType, kPh0Type, kPh1Type, kPh2Type, kDecideType}) {
    EXPECT_TRUE(r.broadcasts_by_type.contains(type)) << type;
  }
}

TEST(Harness, Fig9GuardPollIsHonoured) {
  // A coarser guard poll cannot make the run fail, only slower.
  Fig9OracleParams p;
  p.ids = ids_homonymous(5, 2, 3);
  p.crashes = crashes_last_k(5, 2, 10, 5);
  p.fd1_stabilize = 60;
  p.fd2_stabilize = 90;
  p.guard_poll = 32;
  auto coarse = run_fig9_with_oracle(p);
  ASSERT_TRUE(coarse.check.ok) << coarse.check.detail;
  const SimTime coarse_poll = p.guard_poll;
  p.guard_poll = 2;
  auto fine = run_fig9_with_oracle(p);
  ASSERT_TRUE(fine.check.ok) << fine.check.detail;
  // The poll cadence itself shifts broadcast instants and with them the
  // random delivery draws, so strict dominance is not an invariant; what the
  // coarser poll guarantees is at most one extra poll period of added
  // decision latency beyond schedule noise.
  EXPECT_LE(fine.last_decision_time, coarse.last_decision_time + coarse_poll);
}

TEST(Harness, DistinctProposalsAreDistinct) {
  auto props = distinct_proposals(7);
  std::set<Value> seen(props.begin(), props.end());
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Harness, AnonymousIdsAreAllBottom) {
  for (Id id : ids_anonymous(5)) EXPECT_EQ(id, kBottomId);
  auto unique = ids_unique(5);
  std::set<Id> s(unique.begin(), unique.end());
  EXPECT_EQ(s.size(), 5u);
}

TEST(Harness, FullStackTraceCaptureWhenRequested) {
  Fig9FullStackParams p;
  p.ids = ids_homonymous(3, 2, 3);
  p.delta = 2;
  p.trace_capacity = 50'000;
  auto r = run_fig9_full_stack(p);
  ASSERT_TRUE(r.check.ok) << r.check.detail;
  EXPECT_NE(r.trace_head.find("start"), std::string::npos);
  EXPECT_NE(r.trace_head.find("COORD"), std::string::npos);
  // Off by default.
  p.trace_capacity = 0;
  auto quiet = run_fig9_full_stack(p);
  EXPECT_TRUE(quiet.trace_head.empty());
}

// Logs every RunObserver and FdOutputListener call, tagged with its name.
class LoggingObserver final : public RunObserver, public FdOutputListener {
 public:
  LoggingObserver(std::string name, std::vector<std::string>& log, bool listens)
      : name_(std::move(name)), log_(log), listens_(listens) {}

  void attach(System& sys) override {
    log_.push_back(name_ + " attach n=" + std::to_string(sys.n()));
  }
  FdOutputListener* listener(ProcIndex) override { return listens_ ? this : nullptr; }
  void finish() override { log_.push_back(name_ + " finish"); }

  void on_trusted_change(SimTime at, const Multiset<Id>&) override {
    log_.push_back(name_ + " trusted@" + std::to_string(at));
  }
  void on_homega_change(SimTime at, const HOmegaOut& out) override {
    log_.push_back(name_ + " homega@" + std::to_string(at) + "=" + std::to_string(out.leader));
  }
  void on_hsigma_change(SimTime at, const HSigmaSnapshot& snap) override {
    log_.push_back(name_ + " hsigma@" + std::to_string(at) + "#" +
                   std::to_string(snap.quora.size()));
  }

 private:
  std::string name_;
  std::vector<std::string>& log_;
  bool listens_;
};

TEST(Harness, ObserversAttachListenAndFinishInListOrder) {
  // The observer seam's contract: attach in list order before the run, every
  // detector change shown to the listening observers in list order (one
  // without a listener is skipped), finish in list order after the run.
  std::vector<std::string> log;
  LoggingObserver a("a", log, true);
  LoggingObserver quiet("q", log, false);
  LoggingObserver b("b", log, true);
  Fig9FullStackParams p;
  p.ids = ids_homonymous(3, 2, 3);
  p.delta = 2;
  p.observers = {&a, &quiet, &b};
  ASSERT_TRUE(run_fig9_full_stack(p).check.ok);

  ASSERT_GT(log.size(), 6u);
  const std::vector<std::string> head(log.begin(), log.begin() + 3);
  const std::vector<std::string> tail(log.end() - 3, log.end());
  EXPECT_EQ(head, (std::vector<std::string>{"a attach n=3", "q attach n=3", "b attach n=3"}));
  EXPECT_EQ(tail, (std::vector<std::string>{"a finish", "q finish", "b finish"}));
  const std::size_t changes_end = log.size() - 3;
  ASSERT_EQ((changes_end - 3) % 2, 0u);
  bool saw_homega = false;
  bool saw_hsigma = false;
  for (std::size_t k = 3; k < changes_end; k += 2) {
    ASSERT_EQ(log[k].substr(0, 2), "a ") << k;
    EXPECT_EQ(log[k + 1], "b " + log[k].substr(2)) << k;
    saw_homega |= log[k].find("homega@") != std::string::npos;
    saw_hsigma |= log[k].find("hsigma@") != std::string::npos;
  }
  EXPECT_TRUE(saw_homega);
  EXPECT_TRUE(saw_hsigma);
}

TEST(Harness, CrashHelperShape) {
  auto crashes = crashes_last_k(5, 2, 3, 2, true);
  EXPECT_FALSE(crashes[0].has_value());
  ASSERT_TRUE(crashes[4].has_value());
  EXPECT_EQ(crashes[4]->at, 3);
  EXPECT_TRUE(crashes[4]->partial_broadcast);
  ASSERT_TRUE(crashes[3].has_value());
  EXPECT_EQ(crashes[3]->at, 5);
  EXPECT_THROW(crashes_last_k(2, 2, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hds
