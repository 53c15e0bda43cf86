"""Command-line front end: deterministic JSON/table reports.

One verb per library capability.  All floats print with 6 significant
digits and fixed key order, so identical configurations produce
byte-identical reports.  Exit codes: 0 success, 2 bad input, 3
computational cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import codeset as cs
from . import kernel as kn
from . import linalg
from . import polarization as pz
from .channel import (
    DMC,
    bhattacharyya,
    mutual_info,
    qsc,
    sof_witnesses,
    split_exact,
)
from .curve import curve_from_descriptor, hermitian_curve, rational_curve
from .errors import AgpolarError, TooLarge
from .galois import field_new

# -- argument parsing ----------------------------------------------------


def _parse_field(spec: str):
    parts = dict(kv.split("=", 1) for kv in spec.split(","))
    return field_new(int(parts["p"]), int(parts["r"]))


def _parse_curve(spec, field):
    if spec is None:
        raise argparse.ArgumentTypeError("missing --curve")
    if spec == "rational":
        return rational_curve(field)
    if spec == "hermitian":
        return hermitian_curve(field)
    if spec.startswith("custom:"):
        with open(spec[len("custom:"):]) as fh:
            return curve_from_descriptor(json.load(fh))
    raise argparse.ArgumentTypeError(f"unknown curve {spec!r}")


def _parse_channel(spec: str, field) -> DMC:
    if spec.startswith("qsc:"):
        return qsc(field, float(spec[4:]))
    if spec.startswith("table:"):
        with open(spec[len("table:"):]) as fh:
            data = json.load(fh)
        trans = np.asarray(data["trans"], dtype=float)
        return DMC(field, list(range(trans.shape[1])), trans)
    raise argparse.ArgumentTypeError(f"unknown channel {spec!r}")


def _load_set(path: str, l: int, n: int) -> cs.MonomialIndexSet:
    with open(path) as fh:
        data = json.load(fh)
    s = cs.MonomialIndexSet.from_serialized(data)
    if s.l != l or s.n != n:
        raise argparse.ArgumentTypeError("set alphabet/levels disagree with --curve/--n")
    return s


# -- output formatting ---------------------------------------------------


def _round6(obj):
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.6g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _table_lines(obj, indent=""):
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_table_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(_table_lines(v, indent + "  "))
                lines.append(f"{indent}-")
            else:
                lines.append(f"{indent}{v}")
    else:
        lines.append(f"{indent}{obj}")
    return lines


def _emit(report: dict, args) -> int:
    report = _round6(report)
    if args.format == "json":
        text = json.dumps(report, indent=2, allow_nan=False)
    else:
        text = "\n".join(_table_lines(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# -- shared builders -----------------------------------------------------


def _kernel_for(args):
    field = _parse_field(args.field)
    curve = _parse_curve(args.curve, field)
    return field, curve, kn.build_kernel(curve)


def _kron_factors(args, field):
    names = args.kron.split(",")
    if len(names) != 2:
        raise argparse.ArgumentTypeError("--kron takes two curve names")
    return [kn.build_kernel(_parse_curve(name, field)) for name in names]


# -- subcommand handlers -------------------------------------------------


def _cmd_kernel(args):
    _, _, k = _kernel_for(args)
    return {"kernel": k.serialize()}


def _cmd_exponent(args):
    field = _parse_field(args.field)
    if args.kron:
        k1, k2 = _kron_factors(args, field)
        return {
            "exponent": kn.kron_exponent(k1, k2),
            "method": "closed-form composition",
            "factors": [k1.provenance, k2.provenance],
        }
    k = kn.build_kernel(_parse_curve(args.curve, field))
    ds = kn.partial_distances(k)
    return {
        "exponent": kn.exponent_from_distances(ds),
        "partial_distances": ds,
        "provenance": k.provenance,
    }


def _cmd_standard_form(args):
    _, _, k = _kernel_for(args)
    gp, v, p = kn.standard_form(k)
    return {
        "standard_form": [[int(x) for x in row] for row in gp],
        "v": [[int(x) for x in row] for row in v],
        "p": [[int(x) for x in row] for row in p],
        "polarizes_sof": kn.polarizes_sof(k),
    }


def _cmd_shorten(args):
    field, curve, k = _kernel_for(args)
    if args.castle:
        seq = kn.castle_sequence(curve)
        return {
            "castle": [
                {
                    "l": kk.l,
                    "exponent": kn.exponent(kk),
                    "rows": kk.label_names(),
                }
                for kk in seq
            ]
        }
    if not args.points:
        raise argparse.ArgumentTypeError("need --points or --castle")
    for p in args.points.split(","):
        k = kn.shorten_point(k, curve, int(p))
    return {"kernel": k.serialize(), "exponent": kn.exponent(k)}


def _cmd_kron(args):
    k1, k2 = _kron_factors(args, _parse_field(args.field))
    prod = kn.kron(k1, k2)
    return {"kernel": prod.serialize(), "exponent": kn.kron_exponent(k1, k2)}


def _cmd_channel_info(args):
    field = _parse_field(args.field)
    w = _parse_channel(args.channel, field)
    return {
        "q": field.q,
        "outputs": w.num_outputs,
        "bhattacharyya": bhattacharyya(w),
        "mutual_info": mutual_info(w),
        "sof": sof_witnesses(w) is not None,
    }


def _cmd_split(args):
    field, curve, k = _kernel_for(args)
    w = _parse_channel(args.channel, field)
    out = []
    indices = [int(args.index)] if args.index else range(1, k.l + 1)
    for i in indices:
        wi = split_exact(w, k, i)
        out.append(
            {
                "index": i,
                "outputs": wi.num_outputs,
                "bhattacharyya": bhattacharyya(wi),
                "mutual_info": mutual_info(wi),
            }
        )
    return {"kernel": k.provenance, "splits": out}


def _cmd_polarize(args):
    field, curve, k = _kernel_for(args)
    w = _parse_channel(args.channel, field)
    z = pz.mc_estimate_z(k, args.n, w, args.samples, args.seed)
    report = z.serialize()
    return {"kernel": k.provenance, "n": args.n, "channel": args.channel, **report}


def _cmd_select(args):
    field, curve, k = _kernel_for(args)
    w = _parse_channel(args.channel, field)
    z = pz.mc_estimate_z(k, args.n, w, args.samples, args.seed)
    chosen = pz.select_info_set(z, args.dim, hstar=curve.hstar)
    return {
        "kernel": k.provenance,
        "n": args.n,
        "dim": args.dim,
        "set": chosen.serialize(),
    }


def _cmd_order(args):
    field, curve, k = _kernel_for(args)
    dag = pz.theoretical_order(k, curve, args.n)
    edges = sorted((i, j) for i in dag for j in dag[i])
    return {
        "n": args.n,
        "nodes": k.l**args.n,
        "edges": [[i, j] for i, j in edges],
    }


def _cmd_distance_bound(args):
    field, curve, k = _kernel_for(args)
    a = _load_set(args.set, k.l, args.n)
    lower, upper, meta = cs.min_distance_bound(a, curve, k, args.n)
    report = {
        "lower": lower,
        "upper": upper,
        "dimension": len(a),
        "length": k.l**args.n,
        "convention": meta["digit_order"],
        "k_max": meta["k_max"],
    }
    try:
        gen = cs.generator_matrix(a, k, args.n)
        report["exact"] = cs.brute_min_distance(field, gen)
    except TooLarge:
        report["exact"] = None
    return report


def _cmd_dual(args):
    field, curve, k = _kernel_for(args)
    a = _load_set(args.set, k.l, args.n)
    d = cs.dual_set(a, curve)
    return {"set": a.serialize(), "dual": d.serialize()}


def _cmd_simulate(args):
    field, curve, k = _kernel_for(args)
    w = _parse_channel(args.channel, field)
    z = pz.mc_estimate_z(k, args.n, w, args.samples, args.seed)
    chosen = pz.select_info_set(z, args.dim, hstar=curve.hstar)
    total = k.l**args.n
    positions = sorted(total - m.value - 1 for m in chosen.members)
    bler = pz.simulate_bler(k, args.n, w, positions, args.trials, args.seed + 1)
    return {
        "n": args.n,
        "dim": args.dim,
        "trials": args.trials,
        "bler": bler,
        "info_positions": positions,
    }


def _cmd_verify(args):
    field = field_new(2, 2)
    curve = hermitian_curve(field)
    kh = kn.build_kernel(curve)
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except AgpolarError as exc:
            ok = False
            name = f"{name} ({exc})"
        checks.append({"check": name, "pass": ok})

    check("hermitian partial distances {1,2,2,3,4,5,6,8}",
          lambda: sorted(kn.partial_distances(kh)) == [1, 2, 2, 3, 4, 5, 6, 8])
    check("hermitian exponent ~ 0.5622",
          lambda: abs(kn.exponent(kh) - 0.5622) < 5e-5)
    check("rational GF(4) exponent = ln24/(4 ln4)",
          lambda: abs(kn.exponent(kn.build_kernel(rational_curve(field)))
                      - np.log(24) / (4 * np.log(4))) < 1e-12)
    check("castle sequence exponents (0.5, 0.5, 0.5268, 0.5622)",
          lambda: all(
              abs(kn.exponent(kk) - e) < 5e-5
              for kk, e in zip(kn.castle_sequence(curve), (0.5, 0.5, 0.5268, 0.5622))
          ))
    check("polarizes_sof: hermitian and rational true",
          lambda: kn.polarizes_sof(kh)
          and kn.polarizes_sof(kn.build_kernel(rational_curve(field))))
    check("isometry vector all-ones",
          lambda: (cs.isometry_vector(curve) == 1).all())
    check("dual of 6-element decreasing set has 58 members",
          lambda: len(cs.dual_set(
              cs.MonomialIndexSet.from_values(2, 8, [0, 1, 2, 8, 9, 10]), curve)) == 58)
    check("bn_permutation is an involution (l=8, n=2)",
          lambda: (lambda p: np.array_equal(p[p], np.arange(64)))(
              pz.bn_permutation(8, 2)))
    failed = [c for c in checks if not c["pass"]]
    return {"checks": checks, "passed": len(checks) - len(failed), "failed": len(failed)}


# -- parser --------------------------------------------------------------


def _add_common(sp, curve=True, chan=False, seed=False, n=False):
    sp.add_argument("--field", required=True, help="p=<p>,r=<r>")
    if curve:
        sp.add_argument("--curve", help="rational|hermitian|custom:<path>")
    if chan:
        sp.add_argument("--channel", required=True, help="qsc:<p>|table:<path>")
    if n:
        sp.add_argument("--n", type=int, default=1)
    if seed:
        sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--format", choices=("json", "table"), default="json")
    sp.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="agpolar",
        description="Polar-code kernels from evaluation codes on pointed curves.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("kernel", help="print a curve kernel")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_kernel)

    sp = sub.add_parser("exponent", help="rate of polarization")
    _add_common(sp)
    sp.add_argument("--kron", help="two curve names, closed-form composition")
    sp.set_defaults(fn=_cmd_exponent)

    sp = sub.add_parser("standard-form", help="G' = V G P and the SOF criterion")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_standard_form)

    sp = sub.add_parser("shorten", help="column shortening / castle sequence")
    _add_common(sp)
    sp.add_argument("--points", help="comma-separated point indices")
    sp.add_argument("--castle", action="store_true")
    sp.set_defaults(fn=_cmd_shorten)

    sp = sub.add_parser("kron", help="Kronecker product kernel")
    _add_common(sp, curve=False)
    sp.add_argument("--kron", required=True, help="two curve names")
    sp.set_defaults(fn=_cmd_kron)

    sp = sub.add_parser("channel-info", help="Z, I and SOF status of a channel")
    _add_common(sp, curve=False, chan=True)
    sp.set_defaults(fn=_cmd_channel_info)

    sp = sub.add_parser("split", help="exact one-level split channels")
    _add_common(sp, chan=True)
    sp.add_argument("--index", help="1-based split index (default: all)")
    sp.set_defaults(fn=_cmd_split)

    sp = sub.add_parser("polarize", help="Monte Carlo Z estimates")
    _add_common(sp, chan=True, seed=True, n=True)
    sp.add_argument("--samples", type=int, default=10000)
    sp.set_defaults(fn=_cmd_polarize)

    sp = sub.add_parser("select", help="information set from Z estimates")
    _add_common(sp, chan=True, seed=True, n=True)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--dim", type=int, required=True)
    sp.set_defaults(fn=_cmd_select)

    sp = sub.add_parser("order", help="theoretical degradation DAG")
    _add_common(sp, n=True)
    sp.set_defaults(fn=_cmd_order)

    sp = sub.add_parser("distance-bound", help="matrix-product distance sandwich")
    _add_common(sp, n=True)
    sp.add_argument("--set", required=True, help="path to a set JSON")
    sp.set_defaults(fn=_cmd_distance_bound)

    sp = sub.add_parser("dual", help="dual monomial index set")
    _add_common(sp, n=True)
    sp.add_argument("--set", required=True, help="path to a set JSON")
    sp.set_defaults(fn=_cmd_dual)

    sp = sub.add_parser("simulate", help="encode/transmit/SC-decode BLER")
    _add_common(sp, chan=True, seed=True, n=True)
    sp.add_argument("--samples", type=int, default=2000, help="MC samples for selection")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--trials", type=int, default=1000)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("verify", help="run the built-in worked-example checks")
    sp.add_argument("--format", choices=("json", "table"), default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        report = args.fn(args)
        code = _emit(report, args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AgpolarError, argparse.ArgumentTypeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cmd == "verify" and report.get("failed"):
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
