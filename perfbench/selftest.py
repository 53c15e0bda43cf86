"""Show that the benchmark's output checks fire on corrupted outputs.

    python3 perfbench/selftest.py

Runs one clean round of herm4-n1 and of analysis (no check may fail),
then the same rounds with one output corrupted at a time.  Each
corruption must make exactly one operation of its round fail:

  - one byte changed in an analysis report
  - one Z estimate moved by 10 combined standard errors
  - one decoded symbol flipped in the noiseless round trip
  - a BLER far outside the reference interval
  - one byte changed in a field's arithmetic tables

Exits 1 if any corruption goes unnoticed or a clean round fails.
"""

from __future__ import annotations

import os
import sys
import types

import workloads as wl

os.chdir(wl.REPO_ROOT)
wl.use_checkout_sources()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

SEED = 12345


def failed_ops(workload) -> int:
    rnd = workload.round(SEED)
    for f in rnd.failures:
        print("    fired: " + "; ".join(f)[:160])
    return len(rnd.failures)


def expect(label: str, workload, want: int, ok: list):
    got = failed_ops(workload)
    ok.append(got == want)
    print(f"{'PASS' if got == want else 'FAIL'}: {label}: {got} failed operation(s), want {want}")


def main() -> int:
    ok = []
    pipe = run.PipelineWorkload(wl.PIPELINES["herm4-n1"])
    expect("herm4-n1 clean round", pipe, 0, ok)

    pz = pipe.pz
    mc = pz.mc_estimate_z

    def shifted_mc(*args, **kwargs):
        z = mc(*args, **kwargs)
        tol = checks.z_tolerance(pipe.ref, z.samples, z.se) / checks.Z_SIGMAS
        i = int(np.argmax(tol))
        z.est[i] += 10 * tol[i]
        return z

    pz.mc_estimate_z = shifted_mc
    try:
        expect("Z moved by 10 combined SE", pipe, 1, ok)
    finally:
        pz.mc_estimate_z = mc

    decode = pipe.decode_sc_batch

    def flipped_decode(k, n, w, y, frozen):
        u_hat = decode(k, n, w, y, frozen)
        free = min(set(range(u_hat.shape[1])) - set(frozen))
        u_hat[0, free] = (u_hat[0, free] + 1) % k.field.q
        return u_hat

    pipe.decode_sc_batch = flipped_decode
    expect("one decoded symbol flipped", pipe, 1, ok)
    pipe.decode_sc_batch = decode

    simulate = pz.simulate_bler
    pz.simulate_bler = lambda *a, **kw: min(1.0, simulate(*a, **kw) + 0.5)
    try:
        expect("BLER raised by 0.5", pipe, 1, ok)
    finally:
        pz.simulate_bler = simulate

    ana = run.AnalysisWorkload()
    expect("analysis clean round", ana, 0, ok)

    query = ana._query

    def one_byte_changed(q):
        text, dt, fails = query(q)
        if q == wl.ANALYSIS_QUERIES[0]:
            i = len(text) // 2
            text = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
        return text, dt, fails

    ana._query = one_byte_changed
    expect("one byte changed in a report", ana, 1, ok)
    ana._query = query

    galois = ana.galois

    def corrupt_field(p, r):
        field = galois.FiniteField(p, r)
        if (p, r) == wl.ANALYSIS_FIELDS[-1]:
            field.mul_table = field.mul_table.copy()
            field.mul_table[3, 5] ^= 1
        return field

    ana.galois = types.SimpleNamespace(FiniteField=corrupt_field)
    expect("one byte changed in field tables", ana, 1, ok)
    ana.galois = galois

    print(f"{sum(ok)} of {len(ok)} self-test cases passed")
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
