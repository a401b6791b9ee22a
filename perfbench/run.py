#!/usr/bin/env python3
"""End-to-end benchmark of the HASH synthesis and verification service.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Workloads: synth, cone_cold, edit_replay, fleet (see perfbench/README.md).
The script builds the benchmark package (perfbench/CMakeLists.txt) into
.bench_build/perfbench, generates the seeded inputs, runs the set-up and
then whole rounds of timed repetitions, each in a fresh pb_worker process,
until S seconds have passed.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of a separate traced run with
--trace 1.
"""

import time

PROCESS_START = time.monotonic()  # set-up time counts from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("synth", "cone_cold", "edit_replay", "fleet")
# Repetitions per round: edit_replay replays each of its edits once.
REPLAY_EDITS = 8
ROUND = {"synth": 1, "cone_cold": 1, "edit_replay": REPLAY_EDITS, "fleet": 1}
REP_TIMEOUT_S = 100

# Per-layer metrics: name -> unit.  Layer spans and counters come from the
# traced replay (pb_worker --trace); see README.md for which end-to-end
# metric each should move.
PER_LAYER = {
    "kernel.terms_interned": "count",
    "kernel.arena_mb": "MB",
    "hash.compile_s": "s",
    "hash.retime_s": "s",
    "hash.encode_s": "s",
    "hash.redundancy_s": "s",
    "hash.compose_s": "s",
    "retime.labels_s": "s",
    "circuit.bitblast_s": "s",
    "io.parse_s": "s",
    "io.extract_cones_s": "s",
    "io.structural_hash_s": "s",
    "io.gates_parsed": "count",
    "verify.pair_cones_s": "s",
    "verify.fast_tier_s": "s",
    "verify.fast_settled": "count",
    "sim.refute_s": "s",
    "sim.vectors": "count",
    "sim.refuted": "count",
    "verify.engine_s": "s",
    "verify.engine_cones": "count",
    "verify.engine_iterations": "count",
    "bdd.peak_nodes": "count",
    "cache.load_s": "s",
    "cache.save_s": "s",
    "cache.lookup_s": "s",
    "cache.publish_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.file_bytes": "bytes",
    "remote.lookup_ms": "ms",
    "remote.publish_ms": "ms",
    "remote.round_trips": "count",
    "service.job_s": "s",
    "service.residual_s": "s",
    "service.span_coverage": "share",
    "trace.overhead_s": "s",
}

# The workload a per-layer metric is read from when it reads zero on the
# requested workload (the workload leaves that part of the layer idle).
HOME = {
    "kernel": "synth", "hash": "synth", "retime": "synth", "circuit": "synth",
    "io": "edit_replay", "cache": "edit_replay",
    "verify": "cone_cold", "sim": "cone_cold", "bdd": "cone_cold",
    "service": "cone_cold", "remote": "fleet",
}

# Direct children of the service.job span in the traced replay.
JOB_CHILDREN = (
    "io.parse_s", "verify.pair_cones_s", "io.structural_hash_s",
    "cache.lookup_s", "remote.lookup_s", "verify.fast_tier_s",
    "sim.refute_s", "verify.engine_s", "cache.publish_s", "remote.publish_s",
)


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def on_signal(signum, _frame):
    raise BenchError(f"interrupted by signal {signum}")


# ---- build ------------------------------------------------------------------

def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_build(["cmake", "-S", src, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build(["cmake", "--build", out, "-j", jobs])
    return out


def run_build(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError("build failed: " + " ".join(cmd))


# ---- processes --------------------------------------------------------------

def worker(bindir, args, root):
    """Run one pb_worker process; return its report."""
    cmd = [os.path.join(bindir, "pb_worker")] + args
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(args))
    if proc.returncode != 0:
        raise BenchError(f"pb_worker {' '.join(args)} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("pb_worker printed nothing: " + " ".join(args))
    return json.loads(lines[-1])


def die_with_parent():
    """Child set-up: SIGTERM the child if run.py itself is killed, so no
    daemon outlives a run even when run.py's own cleanup never runs."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


class Daemon:
    """eda_cached on a unix socket inside the run directory."""

    def __init__(self, bindir, rundir, root):
        self.sock = os.path.relpath(os.path.join(rundir, "cached.sock"), root)
        self.proc = subprocess.Popen(
            [os.path.join(bindir, "eda_cached"), "--socket", self.sock],
            cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=die_with_parent)
        try:
            self.wait_ready(os.path.join(root, self.sock))
        except BaseException:
            self.stop()
            raise

    def wait_ready(self, path):
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("eda_cached exited at start")
            if os.path.exists(path):
                with socket.socket(socket.AF_UNIX) as s:
                    try:
                        s.connect(path)
                        return
                    except OSError:
                        pass
            time.sleep(0.02)
        raise BenchError("eda_cached did not start")

    @property
    def address(self):
        return "unix:" + self.sock

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ---- one workload's set-up and repetitions ----------------------------------

class Session:
    """Inputs, caches and (for fleet) the daemon of one workload."""

    def __init__(self, bindir, root, rundir, workload, seed, traced,
                 plain=True):
        self.bindir, self.root, self.workload = bindir, root, workload
        self.dir = os.path.relpath(os.path.join(rundir, workload), root)
        self.daemon = None
        self.prep_report = None
        self.trace_files = []
        worker(bindir, ["gen", workload, str(seed), self.dir], root)
        if workload == "fleet":
            self.daemon = Daemon(bindir, rundir, root)
        try:
            if workload in ("edit_replay", "fleet"):
                # A traced session fills its caches through the traced
                # replay (first, so the replay's publishes reach an empty
                # daemon); untraced repetitions need the service's set-up.
                for t in [True] * traced + [False] * plain:
                    rep = self.call("prep", 0, t)
                    check_report(rep, "set-up")
                    if t == traced:
                        self.prep_report = rep
        except BaseException:
            self.close()
            raise

    def options(self, index, traced, tag):
        args = []
        if self.daemon:
            args += ["--server", self.daemon.address]
        if traced:
            path = os.path.join(self.dir, f"trace-{tag}-{index}.json")
            args += ["--trace", path]
            self.trace_files.append(path)
        return args + ["--index", str(index)]

    def call(self, cmd, index, traced, tag="prep"):
        return worker(self.bindir, [cmd, self.workload, self.dir] +
                      self.options(index, traced, tag), self.root)

    def rep(self, index, traced=False):
        return self.call("rep", index, traced, "rep")

    def close(self):
        if self.daemon:
            self.daemon.stop()


def check_report(rep, what):
    if rep["errors"]:
        raise BenchError(f"{what}: wrong output: {rep['errors'][0]}")
    if rep["failures"]:
        raise BenchError(f"{what}: failed: {rep['failures'][0]}")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def low(xs):
    """10th percentile: the time of a repetition that no slow spell of the
    host hit.  Interference only ever adds time, and on a shared host the
    spells of a few seconds hit half of a run's repetitions often enough
    to move a median by a fifth from one run to the next."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[0]


# ---- modes ------------------------------------------------------------------

def measure(session, seconds):
    """Whole rounds of untraced repetitions for `seconds`."""
    reps = []
    t0 = time.monotonic()
    while not reps or time.monotonic() - t0 < seconds:
        for i in range(ROUND[session.workload]):
            rep = session.rep(i)
            rep["index"] = i
            reps.append(rep)
    return reps


def end_to_end(session, seconds, setup_s):
    """Times are 10th percentiles over the repetitions (see `low`); a job's
    time is its own 10th percentile over the repetitions that ran it, and
    job_p50_ms is the median of those over the jobs."""
    reps = measure(session, seconds)
    by_job = {}
    for r in reps:
        for pos, ms in enumerate(r["job_ms"]):
            by_job.setdefault((r["index"], pos), []).append(ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (low([r["wall_s"] for r in reps]), "s"),
        "job_p50_ms": (median([low(v) for v in by_job.values()]), "ms"),
        "cpu_s": (low([r["cpu_s"] for r in reps]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
    }
    log(f"{session.workload}: {len(reps)} repetitions, "
        f"{sum(len(v) for v in by_job.values())} jobs, "
        f"{len(by_job)} distinct")
    return reps, metrics


def layer_values(reps, prep):
    """Median over traced repetitions of each layer total.  Warm fleet
    passes publish nothing, so the remote publish latency is read from the
    traced cold pass of the set-up."""
    keys = set()
    for r in reps:
        keys.update(r["layers"])
    out = {k: median([r["layers"].get(k, 0.0) for r in reps]) for k in keys}
    jobs = out.get("service.job_s", 0.0)
    if jobs > 0:
        covered = sum(out.get(k, 0.0) for k in JOB_CHILDREN)
        out["service.residual_s"] = jobs - covered
        out["service.span_coverage"] = covered / jobs
    if prep and not out.get("remote.publishes"):
        for k in ("remote.publish_s", "remote.publishes"):
            out[k] = prep["layers"].get(k, 0.0)
    for op, calls in (("lookup", "remote.lookups"),
                      ("publish", "remote.publishes")):
        if out.get(calls, 0.0) > 0:
            out[f"remote.{op}_ms"] = (1e3 * out.get(f"remote.{op}_s", 0.0) /
                                      out[calls])
    return out


def traced(bindir, root, rundir, workload, seed, seconds, keep_dir):
    """The separate traced run: every workload replayed with layer spans,
    plus traced and untraced repetitions of `workload` alternated for the
    tracing overhead."""
    per_workload = {}
    reps_all = []
    overhead_traced, overhead_plain = [], []
    for w in WORKLOADS:
        s = Session(bindir, root, rundir, w, seed, traced=True,
                    plain=w == workload)
        try:
            reps = []
            if w == workload:
                # Alternate untraced (service) and traced (replay) rounds.
                t0 = time.monotonic()
                while not reps or time.monotonic() - t0 < seconds:
                    for i in range(ROUND[w]):
                        plain = s.rep(i)
                        tr = s.rep(i, traced=True)
                        overhead_plain.append(plain["wall_s"])
                        overhead_traced.append(tr["wall_s"])
                        reps_all += [plain, tr]
                        reps.append(tr)
            else:
                for i in range(ROUND[w] if w == "edit_replay" else 2):
                    reps.append(s.rep(i, traced=True))
                reps_all += reps
            per_workload[w] = layer_values(reps, s.prep_report)
            os.makedirs(keep_dir, exist_ok=True)
            if s.trace_files:
                shutil.copy(os.path.join(root, s.trace_files[-1]),
                            os.path.join(keep_dir,
                                         f"{workload}-seed{seed}-{w}.json"))
        finally:
            s.close()
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = median(overhead_traced) - median(overhead_plain)
        else:
            value = per_workload[workload].get(name, 0.0)
            if not value:
                value = per_workload[HOME[name.split(".")[0]]].get(name, 0.0)
        metrics[name] = (value, unit)
    return reps_all, metrics


def selftest(root):
    bindir = build(root)
    proc = subprocess.run([os.path.join(bindir, "pb_check_tests")])
    return proc.returncode


def main():
    signal.signal(signal.SIGTERM, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "service",
                                       "verify_service.h")):
        log("run from the root of a checkout: no library sources in src/")
        return 2
    if args.selftest:
        return selftest(root)
    if args.workload is None:
        ap.error("--workload is required")

    rundir = os.path.join(root, ".bench_run",
                          f"{args.workload}-{args.seed}-{os.getpid()}")
    session = None
    try:
        t_build = time.monotonic()
        bindir = build(root)
        build_s = time.monotonic() - t_build
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        if args.trace:
            reps, metrics = traced(bindir, root, rundir, args.workload,
                                   args.seed, args.seconds,
                                   os.path.join(root, ".bench_trace"))
        else:
            session = Session(bindir, root, rundir, args.workload, args.seed,
                              traced=False)
            # One untimed repetition warms the page cache for the binary
            # and the inputs; its outputs are checked but not counted.  It
            # belongs to the set-up, which then holds a whole cold run of
            # the program rather than a few process starts alone.
            check_report(session.rep(0), "warm-up")
            setup_s = time.monotonic() - PROCESS_START - build_s
            reps, metrics = end_to_end(session, args.seconds, setup_s)
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        if session:
            session.close()
        shutil.rmtree(rundir, ignore_errors=True)

    errors = [e for r in reps for e in r["errors"]]
    for e in errors[:5]:
        log("wrong output: " + e)
    attempted = sum(r["jobs"] for r in reps)
    failed = sum(min(r["jobs"], len(r["failures"])) for r in reps)
    for f in [f for r in reps for f in r["failures"]][:5]:
        log("failed: " + f)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
