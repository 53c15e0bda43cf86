"""The agpolar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process runs a closed loop of rounds for S seconds:
the next round starts when the previous one ends.  The benchmark starts
no threads, and OpenBLAS runs with one.  Every seed inside a
run, and the analysis query order, is drawn from N.  Workloads:

  herm4-n1, herm4-n2, gf2-n10
      One round is the README pipeline as ``agpolar simulate`` runs it:
      mc_estimate_z -> select_info_set -> simulate_bler.  A round is one
      query.
  analysis
      One round is a fixed mix of CLI queries through agpolar.cli.main,
      explicit field constructions, and the README ``polarize`` and
      ``simulate`` verbs on a small kernel (so that every end-to-end
      metric has a value on every workload).  Each is one query.

BENCHMARK.json lists herm4-n1 and herm4-n2.  gf2-n10 and analysis run
by name but are left out of it: their time goes to interpreted Python,
which the shared host slows by up to half for tens of seconds at a
time, so that the middle half of ten runs spread past the 25% bound
even with 30-second runs.  The traced run still covers their layers.

End-to-end metrics (``--trace 0``): setup_s (fresh processes from
start to ready, median of 5), mc_samples_per_s and sc_trials_per_s (per
round, or per polarize and simulate query), query_p50_ms and
query_p90_ms (see end_to_end), queries_per_s, and peak_rss_mb (ru_maxrss
of this process).  Each rate and latency is taken at its fastest in the
run, as ``timeit`` does: the same unit of work is repeated many times,
the shared host only ever slows it (in phases from under a second to
tens of seconds), and the fastest repeat is the steadiest estimate of
what the work itself costs.  Every output is checked (see checks.py);
a failed check fails its operation, and the failed share is reported
beside the metrics and as the result's
``failed`` and ``attempted`` counts (it is 0 when all is well, so it is
not a metric of its own).

With ``--trace 1`` rounds alternate between untraced and traced with
spans around agpolar's public functions (see tracing.py), after one
traced set-up of the workload's field, curve, kernel and channel and
one traced round of the analysis mix, and the per-layer metrics are
printed, including the tracing overhead
(traced minus untraced median round time).  No layer waits on a queue
or on another thread, so there are no wait-time metrics.  The spans are
written to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

# One BLAS thread.  On a shared 2-CPU x86-64 machine the second OpenBLAS thread
# made the many small products of the analysis workload up to 3x slower
# and far noisier, and it did not speed up the large products of the
# pipelines.  Set before numpy loads; set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "mc_samples_per_s": "1/s",
    "sc_trials_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Round:
    """Timings and check results of one round."""

    def __init__(self):
        self.latencies = []  # (query, seconds)
        self.mc_rates = []
        self.sc_rates = []
        self.attempted = 0
        self.failures = []
        self.wall = 0.0

    def op(self, failures):
        self.attempted += 1
        if failures:
            self.failures.append(failures)


class PipelineWorkload:
    def __init__(self, pipe: wl.Pipeline):
        from agpolar import polarization

        self.pz = polarization
        self.pipe = pipe
        self.ref = checks.load_refs(f"{pipe.name}.json")
        self.field, self.curve, self.k, self.w = pipe.build()
        self.total = self.k.l**pipe.n
        # The round trip calls the functions as imported here, so a traced
        # run does not count these checks as the workload's own work.
        self.encode_many = polarization.encode_many
        self.decode_sc_batch = polarization.decode_sc_batch

    def round(self, seed: int) -> Round:
        pz, p, rnd = self.pz, self.pipe, Round()
        t0 = time.perf_counter()
        z = pz.mc_estimate_z(self.k, p.n, self.w, p.mc_samples, seed)
        chosen = pz.select_info_set(z, p.dim, hstar=self.curve.hstar)
        t1 = time.perf_counter()
        positions = sorted(self.total - m.value - 1 for m in chosen.members)
        bler = pz.simulate_bler(self.k, p.n, self.w, positions, p.sc_trials, seed + 1)
        t2 = time.perf_counter()
        rnd.latencies.append(("round", t2 - t0))
        rnd.mc_rates.append(p.mc_samples / (t1 - t0))
        rnd.sc_rates.append(p.sc_trials / (t2 - t1))

        rnd.op(checks.check_z(z.est, z.se, p.mc_samples, self.ref))
        rnd.op(checks.check_info_set(positions, p.dim, self.total))
        rnd.op(checks.check_bler(bler, p.sc_trials, self.ref))
        u = np.zeros((8, self.total), dtype=np.int32)
        u[:, positions] = np.random.default_rng(seed + 2).integers(
            0, self.field.q, size=(8, len(positions)))
        frozen = dict.fromkeys(sorted(set(range(self.total)) - set(positions)), 0)
        u_hat = self.decode_sc_batch(self.k, p.n, self.w,
                                     self.encode_many(self.k, p.n, u), frozen)
        rnd.op(checks.check_roundtrip(u, u_hat, positions))
        return rnd


class AnalysisWorkload:
    def __init__(self):
        from agpolar import cli, galois

        self.cli, self.galois = cli, galois
        self.ref = checks.load_refs("analysis.json")
        self.pipe = wl.ANALYSIS_PIPELINE
        self.total = self.pipe.build()[2].l ** self.pipe.n

    def _query(self, query: str):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(query.split())
        dt = time.perf_counter() - t0
        fails = [] if code == 0 else [f"{query!r} exited {code}"]
        return buf.getvalue(), dt, fails

    def round(self, seed: int) -> Round:
        rng = np.random.default_rng(seed)
        polarize, simulate = wl.analysis_pipeline_queries(int(rng.integers(0, 2**31 - 1)))
        ops = ([("field", pr) for pr in wl.ANALYSIS_FIELDS]
               + [("report", q) for q in wl.ANALYSIS_QUERIES]
               + [("polarize", polarize), ("simulate", simulate)])
        ck, p, rnd = checks, self.pipe, Round()
        for i in rng.permutation(len(ops)):
            kind, what = ops[i]
            if kind == "field":
                t0 = time.perf_counter()
                field = self.galois.FiniteField(*what)
                rnd.latencies.append((what, time.perf_counter() - t0))
                rnd.op(ck.check_field(field, self.ref["fields"][f"{what[0]},{what[1]}"]))
                continue
            text, dt, fails = self._query(what)
            rnd.latencies.append((what if kind == "report" else kind, dt))
            if fails:
                rnd.op(fails)
            elif kind == "report":
                rnd.op(ck.check_report(what, text, self.ref["reports"][what])
                       + ck.paper_crosscheck(what, text))
            elif kind == "polarize":
                rnd.mc_rates.append(p.mc_samples / dt)
                rnd.op(_checked_json(what, text, lambda rep: ck.check_z(
                    [z["est"] for z in rep["z"]], [z["se"] for z in rep["z"]],
                    p.mc_samples, self.ref["pipeline"])))
            else:
                rnd.sc_rates.append(p.sc_trials / dt)
                rnd.op(_checked_json(what, text, lambda rep: (
                    ck.check_info_set(rep["info_positions"], p.dim, self.total)
                    + ck.check_bler(rep["bler"], p.sc_trials, self.ref["pipeline"]))))
        return rnd


def _checked_json(query: str, text: str, check) -> list:
    try:
        return check(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{query!r}: unreadable report ({exc!r})"]


def run_rounds(workload, rng, seconds: float):
    """Rounds until ``seconds`` are up, at least one; a round starts only
    if half of the last round's time still fits, so a run of long rounds
    ends within half a round of ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + rounds[-1].wall / 2 < seconds:
        t0 = time.perf_counter()
        rnd = workload.round(int(rng.integers(0, 2**31 - 2)))
        rnd.wall = time.perf_counter() - t0
        rounds.append(rnd)
    return rounds


def measure_setup(name: str) -> float:
    """Median wall time from process start to ready, over fresh processes."""
    probe = os.path.join(wl.BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, name], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        times.append(dt)
    return statistics.median(times)


def end_to_end(rounds, setup_s: float) -> dict:
    """End-to-end metrics; every rate and latency is the run's fastest.

    A query's latency is its fastest time across the run's rounds, and
    the percentiles are taken over the workload's queries.  A pipeline
    round is its one query (as ``agpolar simulate``), so there p50 and
    p90 are both the round's latency; the analysis mix has one query per
    report, field and README verb.  queries_per_s completes one of each
    query in the sum of their latencies.
    """
    fastest = {}
    for r in rounds:
        for query, seconds in r.latencies:
            fastest[query] = min(seconds, fastest.get(query, seconds))
    lat = list(fastest.values())
    return {
        "setup_s": setup_s,
        "mc_samples_per_s": max(x for r in rounds for x in r.mc_rates),
        "sc_trials_per_s": max(x for r in rounds for x in r.sc_rates),
        "query_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "query_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "queries_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload, rng, seconds: float, run_id: str):
    """Per-layer metrics from rounds that alternate untraced and traced."""
    from agpolar import galois

    tracer = tracing.Tracer(run_id)
    tracing.instrument(tracer)
    try:
        # One set-up as a fresh process pays it, bypassing the field cache,
        # and one round of the analysis mix, so that every layer has a
        # per-call time on every workload.
        pipe = workload.pipe
        pipe.build(galois.FiniteField(pipe.p, pipe.r))
        preamble = AnalysisWorkload().round(int(rng.integers(0, 2**31 - 2)))
    finally:
        tracer.unwrap()
    since, before = len(tracer.spans), Counter(tracer.counts)
    plain, spanned = [], []
    start = time.perf_counter()
    while not spanned or time.perf_counter() - start < seconds:
        plain += run_rounds(workload, rng, 0)
        tracing.instrument(tracer)
        try:
            spanned += run_rounds(workload, rng, 0)
        finally:
            tracer.unwrap()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_jsonl(os.path.join(OUT_DIR, f"trace-{run_id}.jsonl"))
    metrics = tracing.layer_metrics(tracer, since, tracer.counts - before, len(spanned),
                                    sum(r.wall for r in spanned))
    # Pairs of neighbouring rounds; the first pair also carries first-call
    # costs (cold caches), so it counts only when it is the only pair.
    pairs = list(zip(plain, spanned))
    pairs = pairs[1:] or pairs
    over = statistics.median(t.wall - p.wall for p, t in pairs)
    metrics["trace.overhead_ms"] = 1e3 * over
    metrics["trace.overhead_frac"] = over / statistics.median(p.wall for p, _ in pairs)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return [preamble] + plain + spanned, {k: (metrics[k], units[k])
                                          for k, _, _ in tracing.PER_LAYER}


def environment() -> dict:
    import scipy

    env = {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["blas_threads"] = _openblas_threads()
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(f"{index}/{f}") for f in ("level", "type", "size"))
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        env[f"L{level}{suffix}_cache"] = size
    return env


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def _git_sha() -> str:
    try:
        ref = _read(os.path.join(".git", "HEAD"))
        return _read(os.path.join(".git", ref[5:])) if ref.startswith("ref: ") else ref
    except OSError:
        return "unknown (not a git checkout)"


def _openblas_threads():
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(wl.REPO_ROOT)
    wl.use_checkout_sources()
    rng = np.random.default_rng(args.seed)
    if args.workload == "analysis":
        workload = AnalysisWorkload()
    else:
        workload = PipelineWorkload(wl.PIPELINES[args.workload])
    if args.trace:
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        rounds, metrics = traced(workload, rng, args.seconds, run_id)
    else:
        setup_s = measure_setup(args.workload)
        rounds = run_rounds(workload, rng, args.seconds)
        values = end_to_end(rounds, setup_s)
        metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    for f in failures:
        print("check failed: " + "; ".join(f), file=sys.stderr)
    queries = sum(len(r.latencies) for r in rounds)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{queries} query latencies, {attempted} operations checked")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(f"  {'ops_failed_frac':38s} {len(failures) / attempted:14.6g} ratio"
          f" ({len(failures)} of {attempted})")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
