// pb_worker — one process of the end-to-end benchmark (run.py drives it).
//
//   pb_worker gen  WORKLOAD SEED DIR          write the seeded inputs
//   pb_worker prep WORKLOAD DIR [options]     pre-fill caches (set-up)
//   pb_worker rep  WORKLOAD DIR [options]     one timed repetition
//
// options: --server ADDR   eda_cached address (fleet)
//          --trace FILE    replay the service pipeline stage by stage with
//                          spans around every layer call, write FILE
//
// Every repetition runs in a fresh process, as a user's run or restart
// does, so no interner, memo table or heap state carries over between
// repetitions.  A repetition prints one JSON object on stdout: its timed
// wall/CPU time, peak RSS, per-job times, output-check failures and, when
// traced, the per-layer totals.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_gen/fig2.h"
#include "bench_gen/iwls.h"
#include "checks.h"
#include "circuit/bitblast.h"
#include "hash/backward.h"
#include "hash/compile.h"
#include "hash/compound.h"
#include "hash/encode_step.h"
#include "hash/redundancy.h"
#include "hash/retime_step.h"
#include "io/blif.h"
#include "kernel/terms.h"
#include "retime/elementary.h"
#include "retime/graph.h"
#include "retime/leiserson_saxe.h"
#include "retime/min_area.h"
#include "service/admission.h"
#include "service/cache_backend.h"
#include "service/remote_backend.h"
#include "service/verify_service.h"
#include "sim/bitsim.h"
#include "testlib/gen.h"
#include "theories/numeral.h"
#include "theories/pair_theory.h"
#include "trace.h"
#include "verify/batch_bdd.h"
#include "verify/cone.h"
#include "verify/parallel_verify.h"

namespace {

namespace fs = std::filesystem;
namespace es = eda::service;
using Clock = std::chrono::steady_clock;
using pb::PairTruth;
using pb::Tracer;

// ---- workload sizes ---------------------------------------------------------
// Chosen so one repetition takes roughly half a second to a second on a
// 4-core x86 host and the total work of a repetition barely depends on the
// seed: many small obligations per repetition rather than a few large
// ones (the cost of one random pair varies several-fold with its seed).

// cone_cold: pairs of multi-cone netlists, every cone edited.  The BDD
// cost of one random pair varies a hundredfold at equal size but tracks
// its peak node count closely, so the generator keeps only candidates
// whose cones' peak BDD nodes (one engine run per cone) sum to a value
// within one octave, and a repetition holds many such pairs: its total
// work then barely depends on the seed.
constexpr int kColdInputs = 8, kColdGates = 70, kColdFfs = 7, kColdCones = 4;
constexpr int kColdPairs = 48;
constexpr std::size_t kColdPeakLo = 16000, kColdPeakHi = 32000;
constexpr int kColdFfsLo = 14, kColdFfsHi = 24;
constexpr int kColdNonequivEvery = 4;  // every 4th pair inverts a cone

// edit_replay: one large many-cone design and single-cone edits of it.
constexpr int kReplayInputs = 32, kReplayGates = 12000, kReplayFfs = 64,
              kReplayCones = 320;
constexpr long kReplayConeGatesLo = 395000, kReplayConeGatesHi = 415000;
constexpr int kReplayEdits = 8;  // one round = every edit once

// fleet: tenants' BLIF pairs, shared through one eda_cached daemon.
constexpr int kFleetTenants = 4, kFleetPairsPerTenant = 32,
              kFleetSharedPairs = 3;  // submitted by every tenant
constexpr int kFleetInputs = 12, kFleetGates = 400, kFleetFfs = 3,
              kFleetCones = 16;
constexpr int kFleetClients = 2, kFleetConnections = 2;

// Budgets far above any obligation's measured need, so no job times out
// or retries: a timeout near a job's run time makes its time bimodal.
constexpr double kJobTimeoutSec = 120.0;

// ---- small utilities --------------------------------------------------------

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "pb_worker: %s\n", msg.c_str());
  std::exit(2);
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) die("cannot write " + path);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// What one process reports.
struct Report {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> job_ms;
  std::size_t jobs = 0;
  std::vector<std::string> failures;  // jobs that ran but did not succeed
  std::vector<std::string> errors;    // wrong outputs
  std::map<std::string, double> layers;  // traced runs only

  void check(const std::string& err) {
    if (!err.empty()) errors.push_back(err);
  }
  void health(const std::string& err) {
    if (!err.empty()) failures.push_back(err);
  }

  void print() const {
    std::ostringstream o;
    o.precision(9);
    o << "{\"wall_s\":" << wall_s << ",\"cpu_s\":" << cpu_s
      << ",\"peak_rss_mb\":" << peak_rss_mb() << ",\"jobs\":" << jobs
      << ",\"job_ms\":[";
    for (std::size_t i = 0; i < job_ms.size(); ++i) {
      o << (i ? "," : "") << job_ms[i];
    }
    o << "],\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      o << (i ? "," : "") << json_str(failures[i]);
    }
    o << "],\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      o << (i ? "," : "") << json_str(errors[i]);
    }
    o << "],\"layers\":{";
    bool first = true;
    for (const auto& [k, v] : layers) {
      o << (first ? "" : ",") << json_str(k) << ":" << v;
      first = false;
    }
    o << "}}";
    std::printf("%s\n", o.str().c_str());
  }
};

// ---- inputs -----------------------------------------------------------------
// DIR/inputs.txt, one item per line:
//   circuit KIND P1 P2 RETIME MASK DEADINIT
//   pair TENANT A B EQUIV CEX CONES EDITED
//   base A B CONES

struct SynthItem {
  std::string kind;
  int p1 = 0, p2 = 0;
  std::string retime;  // "period" or "area"
  std::uint64_t mask = 0;
  int dead_init = -1;  // initial value of the dead register; -1 = none
};

struct PairItem {
  std::string tenant;
  PairTruth truth;
};

struct Inputs {
  std::vector<SynthItem> circuits;
  std::vector<PairItem> pairs;
  PairTruth base;
};

Inputs read_inputs(const std::string& dir) {
  std::ifstream in(dir + "/inputs.txt");
  if (!in) die("no inputs in " + dir);
  Inputs inp;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "circuit") {
      SynthItem c;
      ls >> c.kind >> c.p1 >> c.p2 >> c.retime >> c.mask >> c.dead_init;
      inp.circuits.push_back(c);
    } else if (tag == "pair") {
      PairItem p;
      int eq = 0;
      ls >> p.tenant >> p.truth.a_path >> p.truth.b_path >> eq >>
          p.truth.cex_output >> p.truth.cones >> p.truth.edited;
      p.truth.a_path = dir + "/" + p.truth.a_path;
      p.truth.b_path = dir + "/" + p.truth.b_path;
      p.truth.equivalent = eq != 0;
      if (p.truth.cex_output == "-") p.truth.cex_output.clear();
      inp.pairs.push_back(p);
    } else if (tag == "base") {
      ls >> inp.base.a_path >> inp.base.b_path >> inp.base.cones;
      inp.base.a_path = dir + "/" + inp.base.a_path;
      inp.base.b_path = dir + "/" + inp.base.b_path;
      inp.base.equivalent = true;
    }
    if (!ls) die("malformed inputs line: " + line);
  }
  return inp;
}

std::string pair_line(const std::string& tenant, const std::string& a,
                      const std::string& b, bool eq, const std::string& cex,
                      std::size_t cones, std::size_t edited) {
  return "pair " + tenant + " " + a + " " + b + " " + (eq ? "1" : "0") +
         " " + (cex.empty() ? "-" : cex) + " " + std::to_string(cones) +
         " " + std::to_string(edited) + "\n";
}

/// A netlist with every cone edited function-preservingly (opaque to the
/// miter fold, so each cone needs the engine), except `invert`, which is
/// complemented.  Returns the edited copy.
eda::circuit::GateNetlist edit_all_cones(const eda::circuit::GateNetlist& net,
                                         int invert) {
  eda::circuit::GateNetlist out = net;
  for (std::size_t j = 0; j < net.outputs().size(); ++j) {
    out = eda::testlib::mutate_cone(
        out, j,
        static_cast<int>(j) == invert
            ? eda::testlib::ConeEdit::Different
            : eda::testlib::ConeEdit::EquivalentOpaque);
  }
  return out;
}

void gen_synth(std::uint64_t seed, std::string& out) {
  // Fixed slots: kind, size, retiming objective and whether a dead
  // register is added never change, so every seed costs about the same.
  // The seed picks the XOR masks and the dead registers' initial values.
  // A mask sets one bit of every aligned bit pair, the seed choosing
  // which: any register of width w has w/2 (rounded either way) bits
  // re-encoded, so the encoding step's cost does not depend on the seed
  // while the encoded circuit and its theorem do.
  std::mt19937_64 rng(seed);
  auto add = [&](const std::string& kind, int p1, int p2,
                 const char* objective, bool dead) {
    std::uint64_t mask = 0;
    for (int bit = 0; bit < 16; bit += 2) mask |= 1ULL << (bit + rng() % 2);
    int dead_init = static_cast<int>(rng() % 8);
    out += "circuit " + kind + " " + std::to_string(p1) + " " +
           std::to_string(p2) + " " + objective + " " +
           std::to_string(mask) + " " +
           std::to_string(dead ? dead_init : -1) + "\n";
  };
  add("fig2", 8, 0, "period", true);
  add("fig2", 10, 0, "area", false);
  add("fig2", 12, 0, "period", false);
  add("fig2deep", 6, 2, "area", true);
  add("fig2deep", 6, 3, "period", false);
  add("fig2deep", 6, 4, "area", false);
  add("mult", 13, 0, "period", false);
  add("mult", 24, 0, "area", false);
  add("iwls:mult16", 0, 0, "period", false);
  add("iwls:s344", 0, 0, "area", false);
  add("pipe", 6, 2, "period", false);
  add("pipe", 7, 2, "area", false);
  add("ctrl", 3, 4, "period", false);
}

/// Sum over the pair's cones of the peak BDD nodes the engine needs, or 0
/// once the sum would reach `limit`.
std::size_t engine_peak(const std::vector<eda::verify::ConePair>& pairs,
                        std::size_t limit) {
  eda::verify::VerifyOptions vo;
  vo.timeout_sec = kJobTimeoutSec;
  std::size_t sum = 0;
  for (const eda::verify::ConePair& p : pairs) {
    vo.node_limit = limit - sum;
    eda::verify::VerifyResult r =
        eda::verify::run_check({&p.a, &p.b, eda::verify::Engine::Eijk, vo});
    if (!r.completed || sum + r.peak >= limit) return 0;
    sum += r.peak;
  }
  return sum;
}

void gen_cone_cold(std::uint64_t seed, const std::string& dir,
                   std::string& out) {
  int i = 0;
  for (std::uint64_t c = 0; i < kColdPairs; ++c) {
    if (c > 20000) die("cone_cold: too few candidates in the cost band");
    std::uint64_t s = mix(seed, c);
    eda::circuit::GateNetlist a = eda::testlib::random_netlist_multi(
        s, kColdInputs, kColdGates, kColdFfs, kColdCones);
    eda::circuit::GateNetlist equiv = edit_all_cones(a, -1);
    std::vector<eda::verify::ConePair> pairs =
        eda::verify::pair_cones(a, equiv);
    // Flip-flops in the cones bound the cost from both sides; skipping
    // candidates far outside the band saves engine runs here.
    int ffs = 0;
    for (const eda::verify::ConePair& p : pairs) ffs += p.a.ff_count();
    if (ffs < kColdFfsLo || ffs > kColdFfsHi) continue;
    std::size_t peak = engine_peak(pairs, kColdPeakHi);
    if (peak < kColdPeakLo) continue;
    bool noneq = i % kColdNonequivEvery == kColdNonequivEvery - 1;
    int inv = noneq ? static_cast<int>(mix(s, 7) % kColdCones) : -1;
    eda::circuit::GateNetlist b = noneq ? edit_all_cones(a, inv) : equiv;
    std::string an = "cc" + std::to_string(i) + "_a.blif",
                bn = "cc" + std::to_string(i) + "_b.blif";
    write_text(dir + "/" + an, eda::io::write_blif(a, "a"));
    write_text(dir + "/" + bn, eda::io::write_blif(b, "b"));
    out += pair_line("t0", an, bn, !noneq,
                     noneq ? a.outputs()[static_cast<std::size_t>(inv)].first
                           : "",
                     a.outputs().size(), a.outputs().size());
    ++i;
  }
}

void gen_edit_replay(std::uint64_t seed, const std::string& dir,
                     std::string& out) {
  // Logic shared between outputs is copied into every cone that reads it,
  // so the extracted size (what parsing aside a restart mostly pays for)
  // varies by a fifth between seeds; keep a design within a narrow band.
  eda::circuit::GateNetlist a;
  std::vector<eda::io::Cone> cones;
  for (std::uint64_t c = 0;; ++c) {
    if (c > 200) die("edit_replay: no design in the cone-size band");
    a = eda::testlib::random_netlist_multi(mix(seed, 1000 + c), kReplayInputs,
                                           kReplayGates, kReplayFfs,
                                           kReplayCones);
    cones = eda::io::extract_cones(a);
    long gates = 0;
    for (const eda::io::Cone& cone : cones) gates += cone.net.gate_count();
    if (gates >= kReplayConeGatesLo && gates <= kReplayConeGatesHi) break;
  }
  write_text(dir + "/design_a.blif", eda::io::write_blif(a, "a"));
  write_text(dir + "/design_b.blif", eda::io::write_blif(a, "b"));
  out += "base design_a.blif design_b.blif " +
         std::to_string(a.outputs().size()) + "\n";
  // Edits the cheap tiers settle: an inverted output, which simulation
  // refutes (NONEQUIV).  Simulation starts every flip-flop at X, so an
  // output that only ever reads X within its frames cannot be refuted;
  // only cones whose inversion the service's simulation budget refutes
  // are edited.  (Every cone of this design reads flip-flops, and the
  // miter keeps each side's flip-flops apart, so a function-preserving
  // edit such as a double inverter would not fold away either.)
  std::mt19937_64 rng(mix(seed, 1001));
  std::vector<std::size_t> order(cones.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::shuffle(order.begin(), order.end(), rng);
  eda::sim::SimOptions sopts;
  sopts.vectors = es::SimPolicy{}.vectors;
  sopts.frames = es::SimPolicy{}.frames;
  sopts.seed = es::SimPolicy{}.seed;
  int k = 0;
  for (std::size_t j : order) {
    if (k == kReplayEdits) break;
    eda::circuit::GateNetlist inverted = eda::testlib::mutate_cone(
        cones[j].net, 0, eda::testlib::ConeEdit::Different);
    if (!eda::sim::refute(cones[j].net, inverted, sopts).refuted) continue;
    eda::circuit::GateNetlist b = eda::testlib::mutate_cone(
        a, j, eda::testlib::ConeEdit::Different);
    std::string bn = "edit" + std::to_string(k++) + ".blif";
    write_text(dir + "/" + bn, eda::io::write_blif(b, "b"));
    out += pair_line("t0", "design_a.blif", bn, false, a.outputs()[j].first,
                     a.outputs().size(), 1);
  }
  if (k < kReplayEdits) die("edit_replay: too few refutable cones");
}

void gen_fleet(std::uint64_t seed, const std::string& dir, std::string& out) {
  // Each tenant owns its pairs; a few engine-bound pairs are submitted by
  // every tenant (the duplicate obligations of the cold pass).
  auto write_pair = [&](const std::string& stem, std::uint64_t s,
                       bool noneq) {
    eda::circuit::GateNetlist a = eda::testlib::random_netlist_multi(
        s, kFleetInputs, kFleetGates, kFleetFfs, kFleetCones);
    int inv = noneq ? static_cast<int>(mix(s, 7) % kFleetCones) : -1;
    eda::circuit::GateNetlist b = edit_all_cones(a, inv);
    write_text(dir + "/" + stem + "_a.blif", eda::io::write_blif(a, "a"));
    write_text(dir + "/" + stem + "_b.blif", eda::io::write_blif(b, "b"));
    return std::make_pair(
        a.outputs().size(),
        noneq ? a.outputs()[static_cast<std::size_t>(inv)].first
              : std::string());
  };
  std::vector<std::string> shared;
  for (int k = 0; k < kFleetSharedPairs; ++k) {
    std::string stem = "shared" + std::to_string(k);
    auto [cones, cex] = write_pair(stem, mix(seed, 5000 + k), false);
    shared.push_back(pair_line("%", stem + "_a.blif", stem + "_b.blif", true,
                               cex, cones, cones));
  }
  for (int t = 0; t < kFleetTenants; ++t) {
    std::string tenant = "tenant" + std::to_string(t);
    for (const std::string& line : shared) {
      std::string l = line;
      l.replace(l.find('%'), 1, tenant);
      out += l;
    }
    for (int k = 0; k < kFleetPairsPerTenant - kFleetSharedPairs; ++k) {
      std::string stem = "t" + std::to_string(t) + "p" + std::to_string(k);
      bool noneq = k % 4 == 3;
      auto [cones, cex] = write_pair(
          stem, mix(seed, static_cast<std::uint64_t>(100 * t + k)), noneq);
      out += pair_line(tenant, stem + "_a.blif", stem + "_b.blif", !noneq,
                       cex, cones, cones);
    }
  }
}

// ---- synth: the paper's method ----------------------------------------------

struct SynthInput {
  std::string name;
  eda::circuit::Rtl rtl;
  eda::hash::Cut cut;
};

SynthInput make_synth_input(const SynthItem& c) {
  namespace bg = eda::bench_gen;
  SynthInput s;
  s.name = c.kind + ":" + std::to_string(c.p1) + ":" + std::to_string(c.p2);
  if (c.kind == "fig2") {
    bg::Fig2 f = bg::make_fig2(c.p1);
    s.rtl = std::move(f.rtl);
    s.cut = std::move(f.good_cut);
  } else if (c.kind == "fig2deep") {
    bg::Fig2Deep f = bg::make_fig2_deep(c.p1, c.p2);
    s.rtl = std::move(f.rtl);
    s.cut.f_nodes = std::move(f.inc_nodes);
  } else {
    bg::BenchCircuit b;
    if (c.kind == "mult") {
      b = bg::make_serial_multiplier(s.name, c.p1);
    } else if (c.kind == "pipe") {
      b = bg::make_pipeline_alu(s.name, c.p1, c.p2);
    } else if (c.kind == "ctrl") {
      b = bg::make_controller(s.name, c.p1, c.p2);
    } else if (c.kind.rfind("iwls:", 0) == 0) {
      std::optional<bg::BenchCircuit> found =
          bg::find_iwls_benchmark(c.kind.substr(5));
      if (!found) die("unknown iwls circuit " + c.kind);
      b = std::move(*found);
    } else {
      die("unknown circuit kind " + c.kind);
    }
    s.rtl = std::move(b.rtl);
    s.cut = std::move(b.cut);
  }
  if (c.dead_init >= 0) {
    // A free-running counter nothing reads: the dead register the formal
    // redundancy-removal step strips.
    eda::circuit::SignalId dead = s.rtl.add_reg(
        "pb_dead", 3, static_cast<std::uint64_t>(c.dead_init));
    s.rtl.set_reg_next(dead, s.rtl.add_op(eda::circuit::Op::Add,
                                          {dead, s.rtl.add_const(3, 1)}));
    s.rtl.validate();
  }
  return s;
}

/// Everything a synthesis job produced that the checks look at.
struct SynthOutcome {
  /// (before, after) of the Leiserson-Saxe label retiming, when applied.
  /// The paper's cut step is not checked this way: a register that feeds
  /// itself directly forms a cycle with no vertex, which the
  /// Leiserson-Saxe graph does not represent.
  std::vector<std::pair<eda::circuit::Rtl, eda::circuit::Rtl>> retimings;
  int period_before = 0, period_after = 0;
  bool labelled = false;
  eda::circuit::Rtl result;
  std::optional<eda::kernel::Thm> theorem;
};

/// One job as hashc would run it, plus the theorem-cache key the service
/// builds for the same circuit: compile, the paper's cut as a formal
/// forward retiming, Leiserson-Saxe labels applied as formal elementary
/// moves, formal XOR re-encoding, formal dead-register removal, the chain
/// composed by transitivity, and the result bit-blasted.
SynthOutcome synth_job(const SynthItem& item, const SynthInput& in,
                       Tracer& tr) {
  namespace h = eda::hash;
  namespace rt = eda::retime;
  SynthOutcome out;
  std::vector<eda::kernel::Thm> steps;
  eda::circuit::Rtl cur = in.rtl;
  {
    Tracer::Span s(tr, "hash.compile");
    h::CompiledCircuit comp = h::compile(cur);
    h::SplitCircuit split = h::compile_split(cur, in.cut);
    (void)eda::thy::mk_pair(split.f, eda::thy::mk_pair(split.g, comp.q));
  }
  {
    Tracer::Span s(tr, "hash.retime");
    h::FormalRetimeResult fr = h::formal_retime(cur, in.cut);
    steps.push_back(fr.theorem);
    cur = std::move(fr.retimed);
  }
  std::map<eda::circuit::SignalId, int> labels;
  {
    Tracer::Span s(tr, "retime.labels");
    rt::RetimeGraph g = rt::graph_from_rtl(cur);
    rt::RetimingResult rr = rt::min_period_retiming(g);
    std::vector<int> r = rr.r;
    if (item.retime == "area") r = rt::min_area_retiming(g, rr.period).r;
    for (int v = 1; v < g.vertex_count(); ++v) {
      int rv = r[static_cast<std::size_t>(v)];
      if (rv != 0) {
        labels.emplace(g.vertex_signal[static_cast<std::size_t>(v)], rv);
      }
    }
    out.period_before = rt::clock_period(g);
  }
  if (!labels.empty()) {
    Tracer::Span s(tr, "hash.retime");
    try {
      rt::ChainResult ch = rt::formal_retime_by_labels(cur, labels);
      out.labelled = true;
      out.retimings.emplace_back(cur, ch.final_rtl);
      if (ch.steps > 0) steps.push_back(ch.theorem);
      cur = std::move(ch.final_rtl);
    } catch (const h::BackwardError&) {
      // A backward move whose initial state does not exist: hashc skips
      // the pass, and so does the benchmark.
    }
  }
  out.period_after = rt::clock_period(cur);
  if (!out.labelled) out.period_before = out.period_after;
  {
    Tracer::Span s(tr, "hash.encode");
    std::vector<std::uint64_t> masks;
    for (eda::circuit::SignalId r : cur.regs()) {
      masks.push_back(item.mask & cur.mask(r));
    }
    h::FormalEncodeResult er = h::formal_xor_reencode(cur, masks);
    steps.push_back(er.theorem);
    cur = std::move(er.encoded);
  }
  if (item.dead_init >= 0) {
    Tracer::Span s(tr, "hash.redundancy");
    h::FormalDeadRemovalResult dr = h::formal_remove_dead_registers(cur);
    steps.push_back(dr.theorem);
    cur = std::move(dr.stripped);
  }
  {
    Tracer::Span s(tr, "hash.compose");
    out.theorem = h::compose_chain(steps);
  }
  {
    Tracer::Span s(tr, "circuit.bitblast");
    (void)eda::circuit::bit_blast(cur);
  }
  out.result = std::move(cur);
  return out;
}

void run_synth(const Inputs& inp, Tracer& tr, Report& rep) {
  std::vector<SynthInput> ins;
  for (const SynthItem& c : inp.circuits) ins.push_back(make_synth_input(c));
  std::vector<SynthOutcome> outs;
  outs.reserve(ins.size());
  double cpu0 = cpu_now();
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    auto tj = Clock::now();
    {
      Tracer::Span s(tr, "synth.job");
      outs.push_back(synth_job(inp.circuits[i], ins[i], tr));
    }
    rep.job_ms.push_back(since(tj) * 1e3);
  }
  rep.wall_s = since(t0);
  rep.cpu_s = cpu_now() - cpu0;
  rep.jobs = ins.size();
  // Output checks, outside the timed region.
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const SynthOutcome& o = outs[i];
    auto tag = [&](const std::string& e) {
      return e.empty() ? e : ins[i].name + ": " + e;
    };
    rep.check(tag(pb::check_theorem(*o.theorem, {"NUM_COMPUTE"})));
    rep.check(tag(pb::check_cosim(ins[i].rtl, o.result,
                                  static_cast<std::uint32_t>(1000 + i))));
    rep.check(tag(pb::check_period(o.period_before, o.period_after)));
    for (const auto& [before, after] : o.retimings) {
      rep.check(tag(pb::check_cycle_registers(before, after)));
    }
  }
  eda::kernel::detail::InternStats st = eda::kernel::Term::intern_stats();
  tr.count("kernel.terms_interned", static_cast<double>(st.live_nodes));
  tr.count("kernel.arena_mb", static_cast<double>(st.arena_bytes) / 1048576.0);
}

// ---- the service workloads --------------------------------------------------

es::ServiceOptions service_options(unsigned jobs) {
  es::ServiceOptions o;
  o.jobs = jobs;
  o.incremental = true;
  o.retry.max_retries = 0;  // a retry would be a failed operation anyway
  return o;
}

es::JobSpec pair_spec(const PairItem& p) {
  es::JobSpec s;
  s.circuit = "blif:" + p.truth.a_path + "," + p.truth.b_path;
  s.method = es::Method::Eijk;
  s.timeout_sec = kJobTimeoutSec;
  s.tenant = p.tenant;
  return s;
}

std::uint64_t total_cones(const std::vector<PairItem>& pairs) {
  std::uint64_t n = 0;
  for (const PairItem& p : pairs) n += p.truth.cones;
  return n;
}

void check_service(const es::ServiceStats& st, std::uint64_t lookups,
                   Report& rep) {
  rep.check(pb::check_accounting(st.results, lookups, "verdict cache"));
  rep.health(pb::check_remote_health(st.remote_failures, st.degraded_ops));
}

/// cone_cold: every pair checked cold, one job at a time.
void run_cone_cold(const Inputs& inp, Report& rep) {
  es::VerifyService svc(service_options(1));
  std::vector<es::JobResult> rs;
  double cpu0 = cpu_now();
  auto t0 = Clock::now();
  for (const PairItem& p : inp.pairs) rs.push_back(svc.run_one(pair_spec(p)));
  rep.wall_s = since(t0);
  rep.cpu_s = cpu_now() - cpu0;
  rep.jobs = rs.size();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    rep.job_ms.push_back(rs[i].total_sec * 1e3);
    rep.health(pb::check_job_health(rs[i]));
    rep.check(pb::check_pair_verdict(inp.pairs[i].truth, rs[i]));
  }
  check_service(svc.stats(), total_cones(inp.pairs), rep);
}

std::string base_cache(const std::string& dir) { return dir + "/base.cache"; }

/// edit_replay set-up: the unedited revision checked cold into the cache.
void prep_edit_replay(const Inputs& inp, const std::string& dir,
                      Report& rep) {
  es::VerifyService svc(service_options(1));
  PairItem base{"t0", inp.base};
  es::JobResult r = svc.run_one(pair_spec(base));
  rep.health(pb::check_job_health(r));
  rep.check(pb::check_pair_verdict(inp.base, r));
  svc.save_cache(base_cache(dir));
}

/// edit_replay: one restart — load the cache, check one edited revision
/// (only its edited cone is re-proved), save the cache.
void run_edit_replay(const Inputs& inp, const std::string& dir, int index,
                     Report& rep) {
  const PairItem& p = inp.pairs[static_cast<std::size_t>(index) %
                                inp.pairs.size()];
  std::string cache = dir + "/replay" + std::to_string(index) + ".cache";
  fs::copy_file(base_cache(dir), cache, fs::copy_options::overwrite_existing);
  es::VerifyService svc(service_options(1));
  double cpu0 = cpu_now();
  auto t0 = Clock::now();
  es::CacheLoadResult lr = svc.load_cache(cache);
  es::JobResult r = svc.run_one(pair_spec(p));
  svc.save_cache(cache);
  rep.wall_s = since(t0);
  rep.cpu_s = cpu_now() - cpu0;
  rep.jobs = 1;
  rep.job_ms.push_back(r.total_sec * 1e3);
  if (!lr.loaded) rep.check("cache load failed: " + lr.note);
  rep.health(pb::check_job_health(r));
  rep.check(pb::check_pair_verdict(p.truth, r));
  rep.check(pb::check_replay(p.truth, r.cones, r.cone_hits, r.cones_reproved));
  // The lookups of the edited revision: every cone once.
  check_service(svc.stats(), p.truth.cones, rep);
  fs::remove(cache);
}

es::ServiceOptions fleet_options(const std::string& server) {
  es::ServiceOptions o = service_options(1);
  o.cache.server = server;
  o.cache.remote_pool = kFleetConnections;
  o.cache.remote_io_timeout_ms = 30000;
  return o;
}

/// One tenant pass: every tenant's pairs, submitted by kFleetClients
/// client threads through their own admission fronts, one job in flight
/// per client (closed loop).  Per-job time runs from submission to
/// verdict, so dispatch and queue wait are included.
std::vector<es::JobResult> fleet_pass(es::VerifyService& svc,
                                      const Inputs& inp,
                                      std::vector<double>& job_ms) {
  std::vector<es::JobResult> rs(inp.pairs.size());
  std::vector<double> ms(inp.pairs.size(), 0.0);
  std::vector<std::string> thread_errors(kFleetClients);
  // Client c serves tenants c, c + kFleetClients, ..., alternating between
  // them job by job.
  auto client = [&](int c) {
    es::AdmissionOptions ao;
    ao.streams = 1;
    es::AdmissionQueue q(svc, ao);
    std::vector<std::vector<std::size_t>> queues;
    for (int t = c; t < kFleetTenants; t += kFleetClients) {
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < inp.pairs.size(); ++i) {
        if (inp.pairs[i].tenant == "tenant" + std::to_string(t)) {
          idx.push_back(i);
        }
      }
      queues.push_back(idx);
    }
    for (std::size_t k = 0;; ++k) {
      bool any = false;
      for (const std::vector<std::size_t>& idx : queues) {
        if (k >= idx.size()) continue;
        any = true;
        std::size_t i = idx[k];
        auto tj = Clock::now();
        es::Admission adm = q.try_submit(pair_spec(inp.pairs[i]));
        if (!adm.accepted) {
          rs[i].name = inp.pairs[i].truth.b_path;
          rs[i].error = "admission refused: " + adm.reason;
          continue;
        }
        rs[i] = q.drain().at(0);
        ms[i] = since(tj) * 1e3;
      }
      if (!any) break;
    }
  };
  auto guarded = [&](int c) {
    try {
      client(c);
    } catch (const std::exception& e) {
      thread_errors[static_cast<std::size_t>(c)] = e.what();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kFleetClients; ++c) threads.emplace_back(guarded, c);
  for (std::thread& t : threads) t.join();
  for (const std::string& e : thread_errors) {
    if (!e.empty()) throw std::runtime_error("fleet client: " + e);
  }
  job_ms = ms;
  return rs;
}

/// fleet set-up: the cold pass, duplicates included, fills the daemon.
void prep_fleet(const Inputs& inp, const std::string& server, Report& rep) {
  es::VerifyService svc(fleet_options(server));
  std::vector<double> ms;
  std::vector<es::JobResult> rs = fleet_pass(svc, inp, ms);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    rep.health(pb::check_job_health(rs[i]));
    rep.check(pb::check_pair_verdict(inp.pairs[i].truth, rs[i]));
  }
  check_service(svc.stats(), total_cones(inp.pairs), rep);
}

/// fleet: one warm tenant pass in a fresh process; every obligation is
/// answered by the daemon.
void run_fleet(const Inputs& inp, const std::string& server, Report& rep) {
  es::VerifyService svc(fleet_options(server));
  double cpu0 = cpu_now();
  auto t0 = Clock::now();
  std::vector<es::JobResult> rs = fleet_pass(svc, inp, rep.job_ms);
  rep.wall_s = since(t0);
  rep.cpu_s = cpu_now() - cpu0;
  rep.jobs = rs.size();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    rep.health(pb::check_job_health(rs[i]));
    rep.check(pb::check_pair_verdict(inp.pairs[i].truth, rs[i]));
    rep.check(pb::check_warm(rs[i]));
  }
  check_service(svc.stats(), total_cones(inp.pairs), rep);
}

// ---- traced replay of the service pipeline ----------------------------------
// The incremental blif-pair path of VerifyService::run_job, stage by stage,
// with a span around every call into a layer: parse, decompose, key,
// lookup, cheap tiers (identity and miter fold, then simulation), the
// batched BDD engine, publish, stitch.  Same public functions, same
// arguments, same order; only the span bookkeeping is added.

eda::kernel::Term cone_key(std::uint64_t ha, std::uint64_t hb,
                           const eda::verify::VerifyOptions& v) {
  namespace thy = eda::thy;
  eda::kernel::Term bounds = thy::mk_pair(
      thy::mk_numeral(static_cast<std::uint64_t>(v.timeout_sec * 1000.0)),
      thy::mk_pair(thy::mk_numeral(v.node_limit),
                   thy::mk_numeral(v.state_limit)));
  return thy::mk_pair(
      thy::mk_numeral(0xc09eULL),
      thy::mk_pair(
          thy::mk_pair(thy::mk_numeral(ha), thy::mk_numeral(hb)),
          thy::mk_pair(thy::mk_numeral(static_cast<std::uint64_t>(
                           eda::verify::Engine::Eijk)),
                       bounds)));
}

eda::verify::StitchedVerdict replay_job(const PairTruth& truth,
                                        es::CacheBackend& backend,
                                        bool remote, Tracer& tr,
                                        Report& rep) {
  namespace v = eda::verify;
  Tracer::Span job(tr, "service.job");
  eda::circuit::GateNetlist a, b;
  {
    Tracer::Span s(tr, "io.parse");
    std::ifstream ia(truth.a_path), ib(truth.b_path);
    a = eda::io::parse_blif(ia);
    b = eda::io::parse_blif(ib);
  }
  tr.count("io.gates_parsed", a.gate_count() + b.gate_count());
  std::vector<v::ConePair> pairs;
  {
    Tracer::Span s(tr, "verify.pair_cones");
    std::vector<eda::io::Cone> ca, cb;
    {
      Tracer::Span e(tr, "io.extract_cones");
      ca = eda::io::extract_cones(a);
      cb = eda::io::extract_cones(b);
    }
    for (std::size_t i = 0; i < ca.size() && i < cb.size(); ++i) {
      v::ConePair p;
      p.output = ca[i].output;
      p.hash_a = ca[i].hash;
      p.hash_b = cb[i].hash;
      p.a = std::move(ca[i].net);
      p.b = std::move(cb[i].net);
      pairs.push_back(std::move(p));
    }
  }
  {
    // Re-derive every cone digest: the hashing layer's cost on these
    // cones, and a check that extraction reported the digest of the cone
    // it returned.
    Tracer::Span s(tr, "io.structural_hash");
    for (const v::ConePair& p : pairs) {
      if (eda::io::structural_hash(p.a) != p.hash_a ||
          eda::io::structural_hash(p.b) != p.hash_b) {
        rep.check(truth.b_path + ": cone digest mismatch at " + p.output);
      }
    }
  }
  v::VerifyOptions vopts;
  vopts.timeout_sec = kJobTimeoutSec;
  std::vector<eda::kernel::Term> keys;
  for (const v::ConePair& p : pairs) {
    keys.push_back(cone_key(p.hash_a, p.hash_b, vopts));
  }
  std::vector<std::uint8_t> hit;
  std::vector<std::optional<v::VerifyResult>> cached;
  {
    Tracer::Span s(tr, remote ? "remote.lookup" : "cache.lookup");
    cached = backend.lookup_verdicts(keys, &hit);
  }
  tr.count(remote ? "remote.lookups" : "cache.lookups", 1);
  std::vector<v::ConeVerdict> cones(pairs.size());
  std::vector<std::size_t> rest;
  eda::sim::SimOptions sopts;  // the service's SimPolicy defaults
  sopts.vectors = es::SimPolicy{}.vectors;
  sopts.frames = es::SimPolicy{}.frames;
  sopts.seed = es::SimPolicy{}.seed;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    cones[i].output = pairs[i].output;
    cones[i].cache_hit = hit[i] != 0;
    if (cached[i]) {
      cones[i].result = *cached[i];
      continue;
    }
    v::ConeJob cj{&pairs[i], v::Engine::Eijk, vopts, false, sopts};
    std::optional<v::VerifyResult> fast;
    {
      Tracer::Span s(tr, "verify.fast_tier");
      fast = v::check_cone_fast(cj);
    }
    if (fast) {
      tr.count("verify.fast_settled", 1);
      cones[i].result = *fast;
      continue;
    }
    eda::sim::RefuteResult sr;
    {
      Tracer::Span s(tr, "sim.refute");
      sr = eda::sim::refute(pairs[i], sopts);
    }
    tr.count("sim.vectors", static_cast<double>(sr.vectors));
    if (sr.refuted) {
      tr.count("sim.refuted", 1);
      cones[i].result.completed = true;
      cones[i].result.sim_refuted = true;
      cones[i].result.sim_vectors = sr.vectors;
      cones[i].result.counterexample = sr.cex.output;
      continue;
    }
    cones[i].result.sim_vectors = sr.vectors;
    rest.push_back(i);
  }
  if (!rest.empty()) {
    std::vector<v::CheckJob> ej;
    for (std::size_t i : rest) {
      ej.push_back({&pairs[i].a, &pairs[i].b, v::Engine::Eijk, vopts});
    }
    std::vector<v::VerifyResult> proved;
    {
      Tracer::Span s(tr, "verify.engine");
      proved = v::check_batch(ej);
    }
    tr.count("verify.engine_cones", static_cast<double>(rest.size()));
    for (std::size_t k = 0; k < rest.size(); ++k) {
      tr.count("verify.engine_iterations", proved[k].iterations);
      tr.maximum("bdd.peak_nodes", static_cast<double>(proved[k].peak));
      proved[k].sim_vectors = cones[rest[k]].result.sim_vectors;
      cones[rest[k]].result = proved[k];
    }
  }
  std::vector<es::VerdictPublish> pubs;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (cones[i].cache_hit) continue;
    pubs.push_back({keys[i], cones[i].result, cones[i].result.completed});
  }
  if (!pubs.empty()) {
    Tracer::Span s(tr, remote ? "remote.publish" : "cache.publish");
    backend.publish_verdicts(std::move(pubs));
    tr.count(remote ? "remote.publishes" : "cache.publishes", 1);
  }
  return v::stitch_verdicts(cones);
}

/// Runs `jobs` through the replay, timing each, and checks the verdicts.
void replay_jobs(const std::vector<const PairItem*>& jobs,
                 es::CacheBackend& backend, bool remote, Tracer& tr,
                 Report& rep, bool expect_warm, bool expect_replay) {
  double cpu0 = cpu_now();
  auto t0 = Clock::now();
  std::vector<eda::verify::StitchedVerdict> outs;
  for (const PairItem* p : jobs) {
    auto tj = Clock::now();
    outs.push_back(replay_job(p->truth, backend, remote, tr, rep));
    rep.job_ms.push_back(since(tj) * 1e3);
  }
  rep.wall_s += since(t0);
  rep.cpu_s += cpu_now() - cpu0;
  rep.jobs += jobs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const eda::verify::StitchedVerdict& sv = outs[i];
    rep.check(pb::check_verdict(jobs[i]->truth, sv.completed, sv.equivalent,
                                sv.counterexample));
    if (expect_warm && sv.reproved != 0) {
      rep.check(jobs[i]->truth.b_path + ": warm pass ran an engine");
    }
    if (expect_replay) {
      rep.check(pb::check_replay(jobs[i]->truth, sv.cones, sv.hits,
                                 sv.reproved));
    }
  }
}

std::vector<const PairItem*> all_pairs(const Inputs& inp) {
  std::vector<const PairItem*> v;
  for (const PairItem& p : inp.pairs) v.push_back(&p);
  return v;
}

std::unique_ptr<es::CacheBackend> remote_backend(const std::string& server) {
  es::RemoteBackendOptions ro;
  ro.server = server;
  ro.tenant = "trace";
  ro.pool = 1;
  ro.io_timeout_ms = 30000;
  return std::make_unique<es::RemoteBackend>(ro);
}

void finish_backend(const es::CacheBackend& be, Tracer& tr, Report& rep,
                    std::uint64_t lookups) {
  es::BackendStats st = be.stats();
  rep.check(pb::check_accounting(st.verdicts, lookups, "verdict cache"));
  rep.health(pb::check_remote_health(st.remote_failures, st.degraded_ops));
  tr.count("cache.hits", static_cast<double>(st.verdicts.hits));
  tr.count("cache.misses", static_cast<double>(st.verdicts.misses));
  tr.count("remote.round_trips", static_cast<double>(st.remote_round_trips));
}

void traced_prep(const std::string& workload, const Inputs& inp,
                 const std::string& dir, const std::string& server,
                 Tracer& tr, Report& rep) {
  if (workload == "edit_replay") {
    es::InProcessBackend be;
    PairItem base{"t0", inp.base};
    replay_jobs({&base}, be, false, tr, rep, false, false);
    be.persist(base_cache(dir) + ".traced");
  } else if (workload == "fleet") {
    std::unique_ptr<es::CacheBackend> be = remote_backend(server);
    replay_jobs(all_pairs(inp), *be, true, tr, rep, false, false);
  }
}

void traced_rep(const std::string& workload, const Inputs& inp,
                const std::string& dir, const std::string& server, int index,
                Tracer& tr, Report& rep) {
  if (workload == "cone_cold") {
    es::InProcessBackend be;
    replay_jobs(all_pairs(inp), be, false, tr, rep, false, false);
    finish_backend(be, tr, rep, total_cones(inp.pairs));
  } else if (workload == "edit_replay") {
    const PairItem& p = inp.pairs[static_cast<std::size_t>(index) %
                                  inp.pairs.size()];
    std::string cache = dir + "/replay" + std::to_string(index) + ".traced";
    fs::copy_file(base_cache(dir) + ".traced", cache,
                  fs::copy_options::overwrite_existing);
    es::InProcessBackend be;
    double cpu0 = cpu_now();
    auto t0 = Clock::now();
    es::CacheLoadResult lr;
    {
      Tracer::Span s(tr, "cache.load");
      lr = be.warm_start(cache);
    }
    replay_jobs({&p}, be, false, tr, rep, false, true);
    {
      Tracer::Span s(tr, "cache.save");
      be.persist(cache);
    }
    rep.wall_s = since(t0);
    rep.cpu_s = cpu_now() - cpu0;
    if (!lr.loaded) rep.check("cache load failed: " + lr.note);
    finish_backend(be, tr, rep, p.truth.cones);
    tr.count("cache.file_bytes", static_cast<double>(fs::file_size(cache)));
    fs::remove(cache);
  } else if (workload == "fleet") {
    std::unique_ptr<es::CacheBackend> be = remote_backend(server);
    replay_jobs(all_pairs(inp), *be, true, tr, rep, true, false);
    finish_backend(*be, tr, rep, total_cones(inp.pairs));
  }
  eda::kernel::detail::InternStats st = eda::kernel::Term::intern_stats();
  tr.count("kernel.terms_interned", static_cast<double>(st.live_nodes));
  tr.count("kernel.arena_mb", static_cast<double>(st.arena_bytes) / 1048576.0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    die("usage: pb_worker gen WORKLOAD SEED DIR | prep WORKLOAD DIR [opts] "
        "| rep WORKLOAD DIR [opts]");
  }
  std::string cmd = argv[1], workload = argv[2];
  static const std::vector<std::string> kWorkloads = {
      "synth", "cone_cold", "edit_replay", "fleet"};
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
      kWorkloads.end()) {
    die("unknown workload " + workload);
  }
  if (cmd == "gen") {
    if (argc != 5) die("usage: pb_worker gen WORKLOAD SEED DIR");
    std::uint64_t seed = std::stoull(argv[3]);
    std::string dir = argv[4];
    fs::create_directories(dir);
    std::string out;
    if (workload == "synth") gen_synth(seed, out);
    if (workload == "cone_cold") gen_cone_cold(seed, dir, out);
    if (workload == "edit_replay") gen_edit_replay(seed, dir, out);
    if (workload == "fleet") gen_fleet(seed, dir, out);
    write_text(dir + "/inputs.txt", out);
    Report().print();
    return 0;
  }
  std::string dir = argv[3], server, trace_path;
  int index = 0;
  for (int a = 4; a < argc; ++a) {
    std::string arg = argv[a];
    if (a + 1 >= argc) die("missing value after " + arg);
    if (arg == "--server") server = argv[++a];
    else if (arg == "--trace") trace_path = argv[++a];
    else if (arg == "--index") index = std::stoi(argv[++a]);
    else die("unknown option " + arg);
  }
  if (workload == "fleet" && server.empty()) die("fleet needs --server");
  Inputs inp = read_inputs(dir);
  Tracer tr(!trace_path.empty());
  Report rep;
  try {
    if (cmd == "prep") {
      if (tr.on()) {
        traced_prep(workload, inp, dir, server, tr, rep);
      } else if (workload == "edit_replay") {
        prep_edit_replay(inp, dir, rep);
      } else if (workload == "fleet") {
        prep_fleet(inp, server, rep);
      }
    } else if (cmd == "rep") {
      if (workload == "synth") {
        run_synth(inp, tr, rep);
      } else if (tr.on()) {
        traced_rep(workload, inp, dir, server, index, tr, rep);
      } else if (workload == "cone_cold") {
        run_cone_cold(inp, rep);
      } else if (workload == "edit_replay") {
        run_edit_replay(inp, dir, index, rep);
      } else {
        run_fleet(inp, server, rep);
      }
    } else {
      die("unknown command " + cmd);
    }
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("exception: ") + e.what());
  }
  if (tr.on()) {
    for (const auto& [k, v] : tr.seconds()) rep.layers[k + "_s"] = v;
    for (const auto& [k, v] : tr.counts()) rep.layers[k] = v;
    if (!tr.write(trace_path, workload)) die("cannot write " + trace_path);
  }
  rep.print();
  return 0;
}
