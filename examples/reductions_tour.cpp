// A guided tour of the paper's Figure 5: every implemented reduction arrow
// run end-to-end, printing the detector outputs before and after each
// transformation. Useful as a reading companion to Section 3.
//
// Build & run:  ./build/examples/reductions_tour
#include <cstdio>
#include <sstream>

#include "hds.h"

namespace {

using namespace hds;

std::string show(const HSigmaSnapshot& s) {
  std::ostringstream os;
  os << s.labels.size() << " labels, quora{";
  bool first = true;
  for (const auto& [x, m] : s.quora) {
    if (!first) os << ", ";
    os << x << "->" << m;
    first = false;
  }
  os << '}';
  return os.str();
}

}  // namespace

int main() {
  using namespace hds;

  // A fixed ground truth for all oracles: five processes, ids {1,1,2,3,4},
  // the two processes named 1 and the one named 3 are correct.
  GroundTruth gt;
  gt.ids = {1, 1, 2, 3, 4};
  gt.correct = {true, true, false, true, false};
  SimTime now = 1000;  // all oracles already stabilized
  ClockFn clock = [&now] { return now; };

  std::printf("Pi = %s, Correct = %s\n\n", gt.all_ids().to_string().c_str(),
              gt.correct_ids().to_string().c_str());

  std::printf("Observation 1: <>HPbar -> HOmega (no communication)\n");
  OracleOHP ohp(gt, clock, 0);
  OhpToHOmega obs1(ohp.handle(0), gt.ids[0]);
  std::printf("  h_trusted = %s  =>  (leader %llu, multiplicity %zu)\n\n",
              ohp.handle(0).h_trusted().to_string().c_str(),
              static_cast<unsigned long long>(obs1.h_omega().leader),
              obs1.h_omega().multiplicity);

  std::printf("Lemma 2: AP -> <>HPbar (anonymous, no communication)\n");
  GroundTruth anon;
  anon.ids = ids_anonymous(5);
  anon.correct = gt.correct;
  OracleAP ap(anon, clock, 0);
  ApToOhp lemma2(ap.handle(0));
  std::printf("  anap = %zu  =>  h_trusted = %s\n\n", ap.handle(0).anap(),
              lemma2.h_trusted().to_string().c_str());

  std::printf("Lemma 3: AP -> HSigma (anonymous, no communication)\n");
  ApToHSigma lemma3(ap.handle(0));
  std::printf("  anap = %zu  =>  %s\n\n", ap.handle(0).anap(), show(lemma3.snapshot()).c_str());

  std::printf("Theorem 3: ASigma -> HSigma (anonymous, no communication)\n");
  OracleASigma asig(anon, clock, 0);
  ASigmaToHSigma thm3(asig.handle(0));
  std::printf("  |a_sigma| = %zu pairs  =>  %s\n\n", asig.handle(0).a_sigma().size(),
              show(thm3.snapshot()).c_str());

  std::printf("Theorem 1 (Fig. 1): Sigma -> HSigma with membership, unique ids\n");
  GroundTruth uniq;
  uniq.ids = ids_unique(4);
  uniq.correct = {true, true, true, false};
  OracleSigma sigma(uniq, clock, 0);
  SystemConfig cfg;
  cfg.ids = uniq.ids;
  cfg.timing = std::make_unique<AsyncTiming>(1, 3);
  cfg.crashes = {std::nullopt, std::nullopt, std::nullopt, CrashPlan{10}};
  System sys(std::move(cfg));
  std::set<Id> membership(uniq.ids.begin(), uniq.ids.end());
  std::vector<SigmaToHSigmaLocal*> fig1(4);
  for (ProcIndex i = 0; i < 4; ++i) {
    auto red = std::make_unique<SigmaToHSigmaLocal>(sigma.handle(i), uniq.ids[i], membership);
    fig1[i] = red.get();
    sys.set_process(i, std::move(red));
  }
  sys.start();
  sys.run_until(100);
  std::printf("  trusted = %s  =>  %s\n\n", sigma.handle(0).trusted().to_string().c_str(),
              show(fig1[0]->snapshot()).c_str());

  std::printf("Unique-id corner: HOmega <-> Omega, <>HPbar <-> <>Pbar\n");
  OracleHOmega homega(uniq, clock, 0);
  HOmegaToOmega down(homega.handle(0));
  OmegaToHOmega up(down);
  OracleOHP ohp_u(uniq, clock, 0);
  OhpToOPbar set_down(ohp_u.handle(0));
  std::printf("  HOmega (leader %llu, x%zu) -> Omega leader %llu -> HOmega (leader %llu, x%zu)\n",
              static_cast<unsigned long long>(homega.handle(0).h_omega().leader),
              homega.handle(0).h_omega().multiplicity,
              static_cast<unsigned long long>(down.leader()),
              static_cast<unsigned long long>(up.h_omega().leader), up.h_omega().multiplicity);
  std::printf("  <>HPbar %s -> <>Pbar set of %zu ids\n",
              ohp_u.handle(0).h_trusted().to_string().c_str(), set_down.trusted_set().size());

  std::printf("\nThe communication-bearing arrows (Fig. 2, Fig. 4) are exercised with\n"
              "full property checks in tests/reductions_test.cpp; their measured series\n"
              "(f2-no-membership, f4-n, f4-crashes) are in docs/paper_series.md.\n");
  return 0;
}
