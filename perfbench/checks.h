#pragma once

// Output checks of the benchmark.  Every check compares a program output
// with truth known independently of the program: how the generator edited
// a pair, a property the method must preserve, or a count the benchmark
// made itself.  Each returns "" when the output is right and a one-line
// diagnostic otherwise; check_tests.cpp feeds each one a wrong answer.

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "circuit/rtl.h"
#include "kernel/goal_cache.h"
#include "kernel/thm.h"
#include "service/verify_service.h"
#include "verify/common.h"

namespace pb {

/// What the generator did to one BLIF pair, written beside the files.
struct PairTruth {
  std::string a_path, b_path;
  bool equivalent = true;
  std::string cex_output;    ///< the inverted output, when !equivalent
  std::size_t cones = 0;     ///< primary outputs of the design
  std::size_t edited = 0;    ///< cones whose structure the edit changed
};

/// The job ran once, to completion, within its budgets.
std::string check_job_health(const eda::service::JobResult& r);

/// The verdict matches the generator's edit: EQUIV, or NONEQUIV with the
/// counterexample naming the inverted output.
std::string check_pair_verdict(const PairTruth& truth,
                               const eda::service::JobResult& r);

/// The same for a verdict the benchmark assembled itself (traced runs).
std::string check_verdict(const PairTruth& truth, bool completed,
                          bool equivalent, const std::string& cex);

/// Incremental replay re-proved exactly the edited cones and served every
/// other cone from the cache.
std::string check_replay(const PairTruth& truth, std::size_t cones,
                         std::size_t hits, std::size_t reproved);

/// A warm pass answered the job entirely from the cache: no engine ran.
std::string check_warm(const eda::service::JobResult& r);

/// Cache accounting reconciles with the lookups the benchmark counted:
/// every lookup is exactly one hit or one miss.
std::string check_accounting(const eda::kernel::GoalCacheStats& s,
                             std::uint64_t expected_lookups,
                             const std::string& what);

/// No remote transport failure and no op served while degraded.
std::string check_remote_health(std::uint64_t remote_failures,
                                std::uint64_t degraded_ops);

/// The theorem has no hypotheses and depends on no oracle outside
/// `allowed`.
std::string check_theorem(const eda::kernel::Thm& thm,
                          const std::set<std::string>& allowed);

/// The synthesized circuit behaves like its input on random stimulus.
std::string check_cosim(const eda::circuit::Rtl& before,
                        const eda::circuit::Rtl& after, std::uint32_t seed);

/// Retiming did not lengthen the clock period.
std::string check_period(int before, int after);

/// Signature of a netlist's retiming graph that retiming preserves: for
/// every edge, the delays of its two ends and the fewest registers on any
/// cycle through it, as a sorted list.  Retiming maps vertices and edges
/// one to one, keeps every delay and keeps the register count of every
/// cycle, so the signature of a retimed netlist equals the input's
/// whatever the vertex numbering.
std::vector<std::array<int, 3>> cycle_signature(const eda::circuit::Rtl& rtl);

/// Each cycle kept its register count across a retiming step.
std::string check_cycle_registers(const eda::circuit::Rtl& before,
                                  const eda::circuit::Rtl& after);

}  // namespace pb
