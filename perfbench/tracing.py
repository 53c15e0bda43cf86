"""Spans around agpolar's public functions, installed from outside.

The tracer replaces module (or class) attributes with timing wrappers
and restores them afterwards; the library itself is not changed.
``instrument`` lists the wrapped functions; ``layer_metrics`` turns the
spans into the per-layer metrics of the traced benchmark run.  Each
wrapped call records a span (name, start, end, parent span, run id) in
memory, and optional computed counts.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (name, start, end, parent index or None)
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr: str, name: str, count=None):
        """Time every call of ``owner.attr`` as span ``name``.

        ``count(args, kwargs, result)`` may return computed counts to add.
        """
        orig = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def summary(self, since: int = 0) -> dict:
        """Per span name: calls, inclusive seconds and self seconds,
        over the spans from index ``since`` on."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[since:]:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans[since:], since):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
            fh.write(json.dumps({"run": self.run_id, "counts": dict(self.counts)}) + "\n")


MODULES = ("galois", "curve", "linalg", "kernel", "channel", "polarization", "codeset", "cli")


def _coset_words(args, kwargs, result):
    k = args[0]
    q, l = k.field.q, k.l
    return {"kernel.coset_words": sum(q ** (l - 1 - i) for i in range(l))}


def _split_outputs(args, kwargs, result):
    w, k, i = args[:3]
    return {"channel.split_outputs": w.num_outputs ** k.l * w.field.q ** (int(i) - 1)}


def _mc_work(args, kwargs, result):
    k, n, w, samples = args[:4]
    batch = kwargs.get("batch", args[5] if len(args) > 5 else 512)
    return {"polarization.mc_kernel_apps": samples * n * k.l ** (n - 1),
            "polarization.mc_tensor_bytes": min(batch, samples) * k.field.q ** k.l * 4}


def _sc_work(args, kwargs, result):
    k, n, w, y = args[:4]
    return {"polarization.sc_kernel_apps": len(y) * n * k.l ** (n - 1)}


def instrument(tracer: Tracer):
    """Wrap agpolar's public functions where their callers look them up.

    ``cli`` binds the curve constructors and channel helpers by name, and
    ``polarization`` binds ``sof_witnesses``, so those bindings are wrapped
    too.  ``simulate_bler`` finds ``decode_sc_batch``, ``encode_many`` and
    ``transmit`` as ``polarization`` globals and ``Kernel.__init__`` calls
    ``linalg.is_nonsingular`` through the module, so wrapping the module
    attributes covers them.
    """
    from agpolar import channel, cli, codeset, curve, galois, kernel, linalg, polarization

    tracer.wrap(galois.FiniteField, "__init__", "galois.field_build")
    for owner in (curve, cli):
        for attr in ("rational_curve", "hermitian_curve", "curve_from_descriptor"):
            tracer.wrap(owner, attr, "curve.build")
    tracer.wrap(linalg, "is_nonsingular", "linalg.nonsingular")
    tracer.wrap(linalg, "row_echelon", "linalg.row_echelon")
    tracer.wrap(kernel, "build_kernel", "kernel.build")
    tracer.wrap(kernel, "partial_distances", "kernel.partial_distances", _coset_words)
    tracer.wrap(kernel, "standard_form", "kernel.standard_form")
    tracer.wrap(kernel, "kron", "kernel.kron")
    tracer.wrap(kernel, "castle_sequence", "kernel.castle_sequence")
    tracer.wrap(kernel, "shorten_point", "kernel.shorten_point")
    for owner in (channel, cli):
        tracer.wrap(owner, "split_exact", "channel.split_exact", _split_outputs)
        tracer.wrap(owner, "qsc", "channel.qsc")
        tracer.wrap(owner, "bhattacharyya", "channel.bhattacharyya")
        tracer.wrap(owner, "mutual_info", "channel.mutual_info")
    for owner in (channel, cli, polarization):
        tracer.wrap(owner, "sof_witnesses", "channel.sof_witnesses")
    tracer.wrap(polarization, "mc_estimate_z", "polarization.mc", _mc_work)
    tracer.wrap(polarization, "select_info_set", "polarization.select")
    tracer.wrap(polarization, "simulate_bler", "polarization.simulate")
    tracer.wrap(polarization, "decode_sc_batch", "polarization.sc", _sc_work)
    tracer.wrap(polarization, "encode_many", "polarization.encode")
    tracer.wrap(polarization, "transmit", "polarization.transmit")
    tracer.wrap(polarization, "theoretical_order", "polarization.order")
    tracer.wrap(codeset, "decreasing_closure", "codeset.closure")
    tracer.wrap(codeset, "dual_set", "codeset.dual")
    tracer.wrap(codeset, "min_distance_bound", "codeset.distance_bound")
    tracer.wrap(codeset, "brute_min_distance", "codeset.brute_distance")
    tracer.wrap(codeset, "generator_matrix", "codeset.generator_matrix")
    tracer.wrap(cli, "main", "cli.main")


# Per-layer metrics: (name, unit, better).  Times named *_ms / *_s are
# inclusive means per call; counts are per benchmark round; *_frac is the
# layer's self time over the traced wall time.  Counts marked computed
# are derived from argument sizes, not measured.  The end-to-end metric
# each should move, and on which workload:
#   galois.field_build_ms        setup_s, queries_per_s, query_p90_ms: all; analysis
#   curve.build_ms, kernel.build_ms, linalg.nonsingular_ms
#                                setup_s, query_p90_ms: all; analysis (l = 64, 256)
#   kernel.partial_distances_ms, kernel.coset_words
#                                query_p90_ms, queries_per_s: analysis
#   kernel.standard_form_ms, kernel.kron_ms     query_p50_ms: analysis
#   channel.split_exact_ms, channel.split_outputs   query_p90_ms: analysis
#   channel.sof_witnesses_ms     mc_samples_per_s (small): pipelines
#   polarization.mc_*            mc_samples_per_s, peak_rss_mb: herm4-n2, herm4-n1
#                                (gf2-n10 as the recursion-bound contrast)
#   polarization.sc_*            sc_trials_per_s, peak_rss_mb: herm4-n1 (per-call
#                                cost), herm4-n2, gf2-n10
#   polarization.encode_s, transmit_s   sc_trials_per_s (< 5%): gf2-n10
#   polarization.select_ms       mc_samples_per_s (small): gf2-n10
#   polarization.order_ms        query_p50_ms, query_p90_ms: analysis
#   codeset.*_ms                 query_p50_ms: analysis
#   cli.self_ms                  query_p50_ms, query_p90_ms: analysis
PER_CALL = [
    ("galois.field_build_ms", "galois.field_build", 1e3),
    ("curve.build_ms", "curve.build", 1e3),
    ("kernel.build_ms", "kernel.build", 1e3),
    ("linalg.nonsingular_ms", "linalg.nonsingular", 1e3),
    ("kernel.partial_distances_ms", "kernel.partial_distances", 1e3),
    ("kernel.standard_form_ms", "kernel.standard_form", 1e3),
    ("kernel.kron_ms", "kernel.kron", 1e3),
    ("channel.split_exact_ms", "channel.split_exact", 1e3),
    ("channel.sof_witnesses_ms", "channel.sof_witnesses", 1e3),
    ("polarization.mc_s", "polarization.mc", 1.0),
    ("polarization.sc_ms_per_call", "polarization.sc", 1e3),
    ("polarization.encode_s", "polarization.encode", 1.0),
    ("polarization.transmit_s", "polarization.transmit", 1.0),
    ("polarization.select_ms", "polarization.select", 1e3),
    ("polarization.order_ms", "polarization.order", 1e3),
    ("codeset.closure_ms", "codeset.closure", 1e3),
    ("codeset.dual_ms", "codeset.dual", 1e3),
    ("codeset.distance_bound_ms", "codeset.distance_bound", 1e3),
    ("codeset.brute_distance_ms", "codeset.brute_distance", 1e3),
]

PER_LAYER = (
    [(name, "ms" if name.endswith("ms") or name.endswith("_per_call") else "s", "lower")
     for name, _, _ in PER_CALL]
    + [
        ("kernel.coset_words", "words-computed", "lower"),
        ("channel.split_outputs", "outputs-computed", "lower"),
        ("polarization.mc_kernel_apps", "apps-computed", "lower"),
        ("polarization.mc_kernel_apps_per_s", "1/s", "higher"),
        ("polarization.mc_tensor_bytes", "B-computed", "lower"),
        ("polarization.sc_calls", "count", "lower"),
        ("polarization.sc_kernel_apps_per_s", "1/s", "higher"),
        ("cli.self_ms", "ms", "lower"),
    ]
    + [(f"{m}.calls", "count", "lower") for m in MODULES]
    + [(f"{m}.self_frac", "ratio", "lower") for m in MODULES]
    + [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def layer_metrics(tracer: Tracer, since: int, counts, rounds: int, wall_s: float) -> dict:
    """Per-layer values from the ``rounds`` traced rounds, whose spans
    start at index ``since`` and whose counts are ``counts``.  A per-call
    time of a layer those rounds never call comes from the earlier spans."""
    every = tracer.summary()
    summ = tracer.summary(since)

    def row(span, table=summ):
        return table.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call(span, scale):
        r = row(span) if row(span)["calls"] else row(span, every)
        return r["total_s"] / r["calls"] * scale if r["calls"] else 0.0

    def rate(count, span):
        t = row(span)["total_s"]
        return counts[count] / t if t else 0.0

    out = {name: per_call(span, scale) for name, span, scale in PER_CALL}
    mc_calls = row("polarization.mc")["calls"]
    out.update({
        "kernel.coset_words": counts["kernel.coset_words"] / rounds,
        "channel.split_outputs": counts["channel.split_outputs"] / rounds,
        "polarization.mc_kernel_apps": counts["polarization.mc_kernel_apps"] / rounds,
        "polarization.mc_kernel_apps_per_s": rate("polarization.mc_kernel_apps", "polarization.mc"),
        "polarization.mc_tensor_bytes":
            counts["polarization.mc_tensor_bytes"] / mc_calls if mc_calls else 0.0,
        "polarization.sc_calls": row("polarization.sc")["calls"] / rounds,
        "polarization.sc_kernel_apps_per_s": rate("polarization.sc_kernel_apps", "polarization.sc"),
    })
    cli_main = row("cli.main") if row("cli.main")["calls"] else row("cli.main", every)
    out["cli.self_ms"] = cli_main["self_s"] / cli_main["calls"] * 1e3 if cli_main["calls"] else 0.0
    for m in MODULES:
        rows = [r for name, r in summ.items() if name.split(".")[0] == m]
        out[f"{m}.calls"] = sum(r["calls"] for r in rows) / rounds
        out[f"{m}.self_frac"] = sum(r["self_s"] for r in rows) / wall_s
    out["trace.spans"] = (len(tracer.spans) - since) / rounds
    return out
