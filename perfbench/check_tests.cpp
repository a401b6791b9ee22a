// Self-test of the benchmark's output checks: each must accept a right
// answer and reject a wrong one.  Build with the benchmark and run
// `python3 perfbench/run.py --selftest` (or the pb_check_tests binary).

#include <cstdio>
#include <string>

#include "bench_gen/fig2.h"
#include "checks.h"
#include "hash/retime_step.h"
#include "kernel/terms.h"
#include "kernel/types.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void accepts(const std::string& err, const char* what) {
  expect(err.empty(), what);
  if (!err.empty()) std::fprintf(stderr, "  (%s)\n", err.c_str());
}

void rejects(const std::string& err, const char* what) {
  expect(!err.empty(), what);
}

}  // namespace

int main() {
  namespace es = eda::service;
  using pb::PairTruth;

  // Verdicts against the generator's edit.
  PairTruth eq{"a.blif", "b.blif", true, "", 4, 4};
  PairTruth neq{"a.blif", "c.blif", false, "o2", 4, 4};
  es::JobResult good;
  good.name = "job";
  good.ok = good.completed = good.equivalent = true;
  good.verdict = es::VerdictClass::Equiv;
  good.attempts = 1;
  accepts(pb::check_pair_verdict(eq, good), "EQUIV accepted");
  rejects(pb::check_pair_verdict(neq, good), "EQUIV for a NONEQUIV pair");
  es::JobResult refuted = good;
  refuted.equivalent = false;
  refuted.verdict = es::VerdictClass::Nonequiv;
  refuted.counterexample = "o2";
  accepts(pb::check_pair_verdict(neq, refuted), "NONEQUIV accepted");
  rejects(pb::check_pair_verdict(eq, refuted), "NONEQUIV for an EQUIV pair");
  refuted.counterexample = "o1";
  rejects(pb::check_pair_verdict(neq, refuted), "wrong counterexample");
  es::JobResult incomplete = good;
  incomplete.completed = false;
  rejects(pb::check_pair_verdict(eq, incomplete), "no verdict");

  // Job health: one attempt, completed, no failure class.
  accepts(pb::check_job_health(good), "healthy job");
  es::JobResult retried = good;
  retried.attempts = 2;
  rejects(pb::check_job_health(retried), "second attempt");
  es::JobResult timed_out = good;
  timed_out.completed = false;
  timed_out.verdict = es::VerdictClass::Timeout;
  rejects(pb::check_job_health(timed_out), "timeout");
  es::JobResult failed = good;
  failed.ok = false;
  rejects(pb::check_job_health(failed), "failed job");

  // Incremental replay re-proves exactly the edited cones.
  PairTruth edit{"a.blif", "e.blif", true, "", 10, 1};
  accepts(pb::check_replay(edit, 10, 9, 1), "one cone re-proved");
  rejects(pb::check_replay(edit, 10, 8, 2), "two cones re-proved");
  rejects(pb::check_replay(edit, 10, 10, 0), "nothing re-proved");
  rejects(pb::check_replay(edit, 9, 8, 1), "wrong cone count");

  // Warm passes run no engine.
  es::JobResult warm = good;
  warm.result_cache_hit = true;
  accepts(pb::check_warm(warm), "warm hit");
  es::JobResult cold = good;
  cold.cones_reproved = 3;
  rejects(pb::check_warm(cold), "engine ran on a warm pass");

  // Accounting: hits + misses = lookups submitted.
  eda::kernel::GoalCacheStats st;
  st.hits = 5;
  st.misses = 7;
  accepts(pb::check_accounting(st, 12, "cache"), "accounting reconciles");
  rejects(pb::check_accounting(st, 13, "cache"), "lost lookup");
  rejects(pb::check_accounting(st, 11, "cache"), "extra lookup");

  accepts(pb::check_remote_health(0, 0), "healthy remote");
  rejects(pb::check_remote_health(1, 0), "transport failure");
  rejects(pb::check_remote_health(0, 3), "degraded ops");

  // Theorems: no hypotheses, only the expected oracle.
  eda::bench_gen::Fig2 f = eda::bench_gen::make_fig2(4);
  eda::hash::FormalRetimeResult fr =
      eda::hash::formal_retime(f.rtl, f.good_cut);
  accepts(pb::check_theorem(fr.theorem, {"NUM_COMPUTE"}), "retiming theorem");
  rejects(pb::check_theorem(fr.theorem, {}), "unexpected oracle");
  eda::kernel::Term p =
      eda::kernel::Term::var("p", eda::kernel::bool_ty());
  rejects(pb::check_theorem(eda::kernel::Thm::assume(p), {"NUM_COMPUTE"}),
          "theorem with a hypothesis");

  // Co-simulation, clock period and cycle register counts.
  accepts(pb::check_cosim(f.rtl, fr.retimed, 7), "retimed fig2 co-simulates");
  {
    // An accumulator and the same accumulator with another initial value:
    // same structure, different behaviour.
    eda::circuit::Rtl c;
    auto i = c.add_input("i", 4);
    auto r = c.add_reg("r", 4, 1);
    c.set_reg_next(r, c.add_op(eda::circuit::Op::Add, {r, i}));
    c.add_output("y", r);
    c.validate();
    eda::circuit::Rtl d;
    auto i2 = d.add_input("i", 4);
    auto r2 = d.add_reg("r", 4, 2);
    d.set_reg_next(r2, d.add_op(eda::circuit::Op::Add, {r2, i2}));
    d.add_output("y", r2);
    d.validate();
    rejects(pb::check_cosim(c, d, 7), "co-simulation mismatch");

    // The same loop with a second register on it: the cycle through the
    // adder now holds two registers instead of one.
    eda::circuit::Rtl e;
    auto i3 = e.add_input("i", 4);
    auto r3 = e.add_reg("r", 4, 1);
    auto s3 = e.add_reg("s", 4, 0);
    e.set_reg_next(s3, r3);
    e.set_reg_next(r3, e.add_op(eda::circuit::Op::Add, {s3, i3}));
    e.add_output("y", r3);
    e.validate();
    accepts(pb::check_cycle_registers(c, c), "same netlist");
    rejects(pb::check_cycle_registers(c, e), "extra register on a cycle");
  }
  accepts(pb::check_cycle_registers(f.rtl, fr.retimed), "fig2 retiming");
  accepts(pb::check_period(5, 4), "shorter period");
  accepts(pb::check_period(4, 4), "same period");
  rejects(pb::check_period(4, 5), "longer period");

  if (failures == 0) std::printf("pb_check_tests: all checks OK\n");
  return failures == 0 ? 0 : 1;
}
