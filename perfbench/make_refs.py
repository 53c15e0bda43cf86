"""Record the benchmark's reference outputs under perfbench/refs/.

    python3 perfbench/make_refs.py [herm4-n1 herm4-n2 gf2-n10 analysis ...]

With no names, records every workload; herm4-n2 takes ~10 minutes on
two cores.  Pipeline references are high-sample Z estimates, the
information set they select, and the BLER of that set; analysis
references are the exact report bytes, cross-checked against the
paper's worked values before they are written.  Reference seeds are
fixed here and are never derived from a benchmark seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import workloads as wl

wl.use_checkout_sources()

import numpy as np  # noqa: E402
from agpolar import cli, polarization as pz  # noqa: E402
from agpolar.galois import FiniteField  # noqa: E402

import checks  # noqa: E402

Z_REF_CHUNKS = {"herm4-n1": 128, "herm4-n2": 32, "gf2-n10": 64, "analysis": 64}
BLER_REF_CHUNKS = {"herm4-n1": 32, "herm4-n2": 8, "gf2-n10": 32, "analysis": 64}
BLER_CHUNK_TRIALS = 512
Z_SEED, BLER_SEED = 1_000_003, 2_000_003


def pipeline_ref(pipe: wl.Pipeline) -> dict:
    field, crv, k, w = pipe.build()
    total = k.l**pipe.n
    chunk = 1024 if pipe.n < 2 or pipe.curve == "rational" else 512
    m, s1, s2 = 0, np.zeros(total), np.zeros(total)
    for c in range(Z_REF_CHUNKS[pipe.name]):
        z = pz.mc_estimate_z(k, pipe.n, w, chunk, Z_SEED + c)
        m += chunk
        s1 += chunk * z.est
        s2 += chunk * (z.se**2 * chunk + z.est**2)
        print(f"{pipe.name}: Z chunk {c + 1}, {m} samples", file=sys.stderr, flush=True)
    mean = s1 / m
    sd = np.sqrt(np.maximum(s2 / m - mean**2, 0.0))
    zref = pz.ZEstimates(k.l, pipe.n, mean, sd / np.sqrt(m), m, Z_SEED)
    chosen = pz.select_info_set(zref, pipe.dim, hstar=crv.hstar)
    positions = sorted(total - mi.value - 1 for mi in chosen.members)
    errors = 0
    for c in range(BLER_REF_CHUNKS[pipe.name]):
        bler = pz.simulate_bler(k, pipe.n, w, positions, BLER_CHUNK_TRIALS, BLER_SEED + c)
        errors += round(bler * BLER_CHUNK_TRIALS)
    trials = BLER_REF_CHUNKS[pipe.name] * BLER_CHUNK_TRIALS
    return {
        "config": pipe.__dict__,
        "z_samples": m,
        "z_est": mean.tolist(),
        "z_sd": sd.tolist(),
        "info_positions": positions,
        "bler": errors / trials,
        "bler_trials": trials,
    }


def run_query(query: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(query.split())
    if code != 0:
        raise SystemExit(f"{query!r} exited {code}")
    return buf.getvalue()


def analysis_ref() -> dict:
    reports = {}
    for q in wl.ANALYSIS_QUERIES:
        text = run_query(q)
        fails = checks.paper_crosscheck(q, text)
        if fails:
            raise SystemExit("reference disagrees with the paper: " + "; ".join(fails))
        reports[q] = checks.digest(text.encode())
    fields = {f"{p},{r}": checks.field_digest(FiniteField(p, r)) for p, r in wl.ANALYSIS_FIELDS}
    return {"reports": reports, "fields": fields,
            "pipeline": pipeline_ref(wl.ANALYSIS_PIPELINE)}


def main(names):
    os.chdir(wl.REPO_ROOT)
    for name in names or wl.WORKLOADS:
        ref = analysis_ref() if name == "analysis" else pipeline_ref(wl.PIPELINES[name])
        path = os.path.join(wl.REFS_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
