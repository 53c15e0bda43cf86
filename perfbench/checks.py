"""Output checks of the benchmark.

Analysis reports are exact, so they are compared byte-for-byte (by
SHA-256 and length) with references recorded from the sources, and the
references are cross-checked against the paper's worked values.
Pipeline outputs are random, so they are checked statistically against
high-sample references: a faster marginalizer that reorders float sums
still passes.  Every check returns a list of failure messages, empty
when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from workloads import REFS_DIR

# Z check: |Z - Z_ref| <= max(Z_SIGMAS * combined SE, Z_FLOOR).  Per-sample
# Z is heavy-tailed for bad synthetic channels, so the combined SE adds
# the run's own SE (large when a rare large sample was drawn) to the SE
# the reference's per-sample spread predicts at the run's sample count
# (which covers runs that have not yet drawn such a sample) and to the
# reference's SE.
Z_SIGMAS = 6.0
Z_FLOOR = 2e-3
# BLER check: the error count lies inside the central 1 - 2 * BLER_TAIL
# binomial interval, with the reference BLER widened by BLER_REF_SIGMAS
# of its own standard error.
BLER_TAIL = 1e-6
BLER_REF_SIGMAS = 4.0


def load_refs(name: str) -> dict:
    with open(os.path.join(REFS_DIR, name)) as fh:
        return json.load(fh)


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def check_report(query: str, text: str, ref: dict) -> list:
    got = digest(text.encode())
    if got != ref:
        return [f"{query!r}: report {got} differs from reference {ref}"]
    return []


def paper_crosscheck(query: str, text: str) -> list:
    """Compare the reports that carry the paper's worked values with them."""
    try:
        return [f"{query!r}: {f}" for f in _paper_values(query, json.loads(text))]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{query!r}: unreadable report ({exc!r})"]


def _paper_values(query: str, rep: dict) -> list:
    fails = []
    if query.startswith("exponent --curve hermitian --field p=2,r=2"):
        if sorted(rep["partial_distances"]) != [1, 2, 2, 3, 4, 5, 6, 8]:
            fails.append(f"partial distances {rep['partial_distances']}")
        if abs(rep["exponent"] - 0.5622) >= 5e-5:
            fails.append(f"Hermitian exponent {rep['exponent']}")
    elif query.startswith("shorten --castle"):
        exps = [c["exponent"] for c in rep["castle"]]
        if len(exps) != 4 or any(abs(e - x) >= 5e-5 for e, x in
                                 zip(exps, (0.5, 0.5, 0.5268, 0.5622))):
            fails.append(f"castle exponents {exps}")
    elif query.startswith("dual "):
        if len(rep["dual"]["members"]) != 58:
            fails.append(f"dual size {len(rep['dual']['members'])}")
    elif query == "verify":
        if rep["failed"] != 0:
            fails.append(f"verify reports {rep['failed']} failed checks")
    return fails


def field_digest(field) -> dict:
    return digest(field.add_table.tobytes() + field.mul_table.tobytes())


def check_field(field, ref: dict) -> list:
    got = field_digest(field)
    return [] if got == ref else [f"GF({field.q}) tables {got} differ from {ref}"]


def z_tolerance(ref: dict, samples: int, se) -> np.ndarray:
    sd = np.asarray(ref["z_sd"])
    combined = np.sqrt(np.asarray(se, dtype=float) ** 2
                       + sd**2 * (1.0 / samples + 1.0 / ref["z_samples"]))
    return np.maximum(Z_SIGMAS * combined, Z_FLOOR)


def check_z(est, se, samples: int, ref: dict) -> list:
    est = np.asarray(est, dtype=float)
    tol = z_tolerance(ref, samples, se)
    bad = np.flatnonzero(np.abs(est - np.asarray(ref["z_est"])) > tol)
    return [f"Z[{i + 1}] = {est[i]:.6g}, reference {ref['z_est'][i]:.6g}, "
            f"tolerance {tol[i]:.3g}" for i in bad]


def check_info_set(positions, dim: int, total: int) -> list:
    positions = [int(p) for p in positions]
    if len(set(positions)) != dim or len(positions) != dim:
        return [f"information set has {len(set(positions))} members, not {dim}"]
    if not all(0 <= p < total for p in positions):
        return [f"information set {positions} leaves 0..{total - 1}"]
    return []


def bler_interval(trials: int, ref: dict):
    from scipy.stats import binom

    p, t_ref = ref["bler"], ref["bler_trials"]
    widen = BLER_REF_SIGMAS * math.sqrt(max(p * (1 - p), 1.0 / t_ref) / t_ref)
    lo = binom.ppf(BLER_TAIL, trials, max(p - widen, 0.0))
    hi = binom.isf(BLER_TAIL, trials, min(p + widen, 1.0))
    return int(lo), int(hi)


def check_bler(bler: float, trials: int, ref: dict) -> list:
    errors = round(bler * trials)
    lo, hi = bler_interval(trials, ref)
    if not lo <= errors <= hi:
        return [f"{errors} block errors in {trials} trials, outside [{lo}, {hi}] "
                f"around reference BLER {ref['bler']:.4g}"]
    return []


def check_roundtrip(u, u_hat, info) -> list:
    wrong = np.flatnonzero((np.asarray(u)[:, info] != np.asarray(u_hat)[:, info]).any(axis=1))
    if wrong.size:
        return [f"noiseless round trip lost u in {wrong.size} of {len(u)} words"]
    return []
