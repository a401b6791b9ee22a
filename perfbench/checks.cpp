#include "checks.h"

#include <algorithm>
#include <array>
#include <limits>

#include "retime/graph.h"
#include "service/guard.h"

namespace pb {

namespace es = eda::service;

std::string check_job_health(const es::JobResult& r) {
  if (!r.ok) return r.name + ": job failed: " + r.error;
  if (!r.completed) {
    return r.name + ": no verdict (" +
           es::verdict_class_name(r.verdict) + ")";
  }
  if (r.attempts > 1) {
    return r.name + ": needed " + std::to_string(r.attempts) +
           " attempts";
  }
  if (es::verdict_is_failure(r.verdict)) {
    return r.name + ": failure verdict " +
           es::verdict_class_name(r.verdict);
  }
  return "";
}

std::string check_verdict(const PairTruth& truth, bool completed,
                          bool equivalent, const std::string& cex) {
  const std::string name = truth.b_path;
  if (!completed) return name + ": no verdict";
  if (equivalent != truth.equivalent) {
    return name + ": verdict " + (equivalent ? "EQUIV" : "NONEQUIV") +
           ", expected " + (truth.equivalent ? "EQUIV" : "NONEQUIV");
  }
  if (!truth.equivalent && cex != truth.cex_output) {
    return name + ": counterexample names '" + cex + "', expected '" +
           truth.cex_output + "'";
  }
  return "";
}

std::string check_pair_verdict(const PairTruth& truth,
                               const es::JobResult& r) {
  return check_verdict(truth, r.completed, r.equivalent, r.counterexample);
}

std::string check_replay(const PairTruth& truth, std::size_t cones,
                         std::size_t hits, std::size_t reproved) {
  if (cones != truth.cones) {
    return truth.b_path + ": " + std::to_string(cones) + " cones, expected " +
           std::to_string(truth.cones);
  }
  if (reproved != truth.edited || hits != truth.cones - truth.edited) {
    return truth.b_path + ": re-proved " + std::to_string(reproved) +
           " cones with " + std::to_string(hits) + " hits, expected " +
           std::to_string(truth.edited) + " re-proved";
  }
  return "";
}

std::string check_warm(const es::JobResult& r) {
  if (r.cones_reproved != 0 || !r.result_cache_hit) {
    return r.name + ": warm pass ran an engine on " +
           std::to_string(r.cones_reproved) + " cones";
  }
  return "";
}

std::string check_accounting(const eda::kernel::GoalCacheStats& s,
                             std::uint64_t expected_lookups,
                             const std::string& what) {
  if (s.hits + s.misses != expected_lookups) {
    return what + ": " + std::to_string(s.hits) + " hits + " +
           std::to_string(s.misses) + " misses, but " +
           std::to_string(expected_lookups) + " lookups were submitted";
  }
  return "";
}

std::string check_remote_health(std::uint64_t remote_failures,
                                std::uint64_t degraded_ops) {
  if (remote_failures != 0 || degraded_ops != 0) {
    return "remote tier: " + std::to_string(remote_failures) +
           " transport failures, " + std::to_string(degraded_ops) +
           " degraded ops";
  }
  return "";
}

std::string check_theorem(const eda::kernel::Thm& thm,
                          const std::set<std::string>& allowed) {
  if (!thm.hyps().empty()) {
    return "theorem has " + std::to_string(thm.hyps().size()) +
           " hypotheses";
  }
  for (const std::string& tag : thm.oracles()) {
    if (allowed.count(tag) == 0) return "theorem depends on oracle " + tag;
  }
  return "";
}

std::string check_cosim(const eda::circuit::Rtl& before,
                        const eda::circuit::Rtl& after, std::uint32_t seed) {
  if (!eda::circuit::simulation_equivalent(before, after, 300, seed)) {
    return "co-simulation: synthesized circuit differs from its input";
  }
  return "";
}

std::string check_period(int before, int after) {
  if (after > before) {
    return "clock period grew from " + std::to_string(before) + " to " +
           std::to_string(after);
  }
  return "";
}

std::vector<std::array<int, 3>> cycle_signature(
    const eda::circuit::Rtl& rtl) {
  eda::retime::RetimeGraph g = eda::retime::graph_from_rtl(rtl);
  const int n = g.vertex_count();
  const int inf = std::numeric_limits<int>::max() / 4;
  std::vector<std::vector<int>> d(static_cast<std::size_t>(n),
                                  std::vector<int>(static_cast<std::size_t>(n),
                                                   inf));
  auto at = [&](int u, int v) -> int& {
    return d[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)];
  };
  for (int v = 0; v < n; ++v) at(v, v) = 0;
  for (const eda::retime::Edge& e : g.edges) {
    at(e.from, e.to) = std::min(at(e.from, e.to), e.weight);
  }
  for (int k = 0; k < n; ++k) {
    for (int u = 0; u < n; ++u) {
      if (at(u, k) == inf) continue;
      for (int v = 0; v < n; ++v) {
        if (at(k, v) == inf) continue;
        at(u, v) = std::min(at(u, v), at(u, k) + at(k, v));
      }
    }
  }
  std::vector<std::array<int, 3>> sig;
  sig.reserve(g.edges.size());
  for (const eda::retime::Edge& e : g.edges) {
    int back = at(e.to, e.from);
    sig.push_back({g.delay[static_cast<std::size_t>(e.from)],
                   g.delay[static_cast<std::size_t>(e.to)],
                   back == inf ? inf : e.weight + back});
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

std::string check_cycle_registers(const eda::circuit::Rtl& before,
                                  const eda::circuit::Rtl& after) {
  if (cycle_signature(before) != cycle_signature(after)) {
    return "retiming changed the register count of a cycle";
  }
  return "";
}

}  // namespace pb
