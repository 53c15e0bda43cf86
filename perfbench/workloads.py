"""Workload definitions shared by the benchmark, its reference recorder
and its checker self-test.

Each pipeline workload is one (kernel, n, channel, dim) design point of
the README pipeline ``polarize -> select -> simulate``; one round runs
the same library calls with the same arguments as
``agpolar simulate --samples MC_SAMPLES --trials SC_TRIALS``.  The
analysis workload is a fixed mix of CLI queries.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
REFS_DIR = os.path.join(BENCH_DIR, "refs")
SET_FILE = os.path.join("perfbench", "data", "set-herm4-n2.json")


def use_checkout_sources():
    """Import agpolar from this checkout's ``src``; exit 2 if it is absent.

    The benchmark measures the sources beside it, never an installed copy.
    """
    if not os.path.isfile(os.path.join(SRC_DIR, "agpolar", "__init__.py")):
        print(f"perfbench: no agpolar sources under {SRC_DIR}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC_DIR)
    import agpolar

    if not os.path.abspath(agpolar.__file__).startswith(SRC_DIR + os.sep):
        print(f"perfbench: agpolar imported from {agpolar.__file__}", file=sys.stderr)
        sys.exit(2)


@dataclass(frozen=True)
class Pipeline:
    """One design point of ``polarize -> select -> simulate``."""

    name: str
    curve: str  # "hermitian" or "rational"
    p: int
    r: int
    channel: float  # qSC total error probability
    n: int
    dim: int
    mc_samples: int  # per round, as ``--samples``
    sc_trials: int  # per round, as ``--trials``

    def build(self, field=None):
        """Field, curve, kernel and channel, built as the CLI builds them.

        The field comes from the process-wide ``field_new`` cache unless
        one is given.
        """
        from agpolar import channel, curve, kernel
        from agpolar.galois import field_new

        field = field if field is not None else field_new(self.p, self.r)
        make_curve = {"hermitian": curve.hermitian_curve, "rational": curve.rational_curve}
        crv = make_curve[self.curve](field)
        return field, crv, kernel.build_kernel(crv), channel.qsc(field, self.channel)


# Hermitian GF(4): l = 8, q^l = 65,536.  dim sits at a wide gap of the
# sorted reference Z, so the selected set rarely changes with the seed,
# and the channel is noisy enough that the reference BLER is well above 0.
# Rounds are kept short (one SC call of 64 trials, one MC batch of 512
# samples, or 256 where that batch costs no more per sample) so that a
# run holds many of them; herm4-n2 keeps the full 512-sample batch for
# its (512, q^l) float32 MC tensor of 134 MB.
PIPELINES = {
    "herm4-n1": Pipeline("herm4-n1", "hermitian", 2, 2, 0.1, 1, 4, 512, 64),
    "herm4-n2": Pipeline("herm4-n2", "hermitian", 2, 2, 0.1, 2, 36, 512, 64),
    "gf2-n10": Pipeline("gf2-n10", "rational", 2, 1, 0.08, 10, 448, 256, 64),
}

# The README pipeline verbs inside the analysis mix, on a small kernel
# (rational GF(4), l = 4, q^l = 256) so that they stay a small share of it.
ANALYSIS_PIPELINE = Pipeline("analysis", "rational", 2, 2, 0.1, 2, 8, 2000, 1000)

G4 = "--field p=2,r=2"

# Fixed analysis queries: their reports are exact and are compared
# byte-for-byte with references recorded from the sources.
ANALYSIS_QUERIES = [
    f"kernel --curve hermitian {G4}",
    f"exponent --curve hermitian {G4}",
    f"exponent --kron hermitian,rational {G4}",
    f"standard-form --curve hermitian {G4}",
    f"shorten --castle --curve hermitian {G4}",
    f"shorten --points 0,1 --curve hermitian {G4}",
    f"kron --kron hermitian,rational {G4}",
    f"channel-info --channel qsc:0.1 {G4}",
    f"split --curve rational {G4} --channel qsc:0.1",
    f"order --curve hermitian {G4} --n 1",
    f"order --curve hermitian {G4} --n 3",
    f"distance-bound --curve hermitian {G4} --n 2 --set {SET_FILE}",
    f"dual --curve hermitian {G4} --n 2 --set {SET_FILE}",
    "verify",
    "exponent --curve rational --field p=2,r=3",
    "kernel --curve hermitian --field p=2,r=4",
    "standard-form --curve hermitian --field p=2,r=4",
    "kernel --curve rational --field p=2,r=8",
]

# Every field of the mix, built explicitly each round: the process-wide
# field_new cache would otherwise hide table building after round 1,
# which a CLI user pays on every call.
ANALYSIS_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 8)]


def analysis_pipeline_queries(seed: int):
    """The README ``polarize`` and ``simulate`` verbs with a derived seed."""
    a = ANALYSIS_PIPELINE
    common = f"--curve {a.curve} --field p={a.p},r={a.r} --channel qsc:{a.channel} --n {a.n}"
    return (
        f"polarize {common} --samples {a.mc_samples} --seed {seed}",
        f"simulate {common} --samples {a.mc_samples} --seed {seed} "
        f"--dim {a.dim} --trials {a.sc_trials}",
    )


WORKLOADS = list(PIPELINES) + ["analysis"]
