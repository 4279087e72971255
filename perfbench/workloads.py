"""Seeded generators of CLI argv batches, one per workload.

The workload seed only picks the inputs; the program sees nothing but the
argv lists.  Parameters are stratified: the range is cut into one stratum
per operation (or per operation kind) and each draw lands within 2% of a
stratum width of the stratum's centre, with a random sign.  A batch
therefore covers the whole range on every seed, and its cost does not swing
with where a few draws happen to land: circle `verify` cost roughly doubles
for |tau| below about 0.127, and `gram --J-max 2.5` cost rises steeply from
tau 0.2 to 0.3, so wider draws made the batch cost jump between seeds.  The
seed also picks signs, grids, M and order.  A verify operation's own
`--seed` (its sample points and spans) is the stratum's index: near the
ends of the tau range the sample points alone moved an operation's cost by
up to 2x, so drawing them made the batch cost jump too.
"""
from __future__ import annotations

import math

import numpy as np

TAU_RANGE = (0.10, 0.30)     # |tau|; the upper edge is just under pi/10
LOG_Q_RANGE = (0.1, 1.0)     # |ln q|, taken on both sides of q = 1
JITTER = 0.02                # largest offset from a stratum centre, in stratum widths
GRID_POINTS = 2000           # eval grids have about this many points

# Nominal seconds of one batch unit at the seed, used only to turn the
# requested run length into a batch size.
UNIT_SECONDS = {
    "circle-verify": 6.0,    # one verify --suite all on the circle
    "real-verify": 4.3,      # one N=0 and one N=0.5 verify --suite all at real q
    "circle-forms": 10.0,    # two gram and six eval operations
}


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list:
    """One value per stratum of [lo, hi], in stratum order."""
    width = (hi - lo) / n
    offsets = rng.uniform(-JITTER, JITTER, n)
    return [lo + (i + 0.5 + offsets[i]) * width for i in range(n)]


def _signed(rng, mags):
    return [float(m) * float(rng.choice((-1.0, 1.0))) for m in mags]


def circle_verify(rng, units: int) -> list:
    taus = _signed(rng, stratified(rng, units, *TAU_RANGE))
    ops = [["verify", "--suite", "all", "--tau", f"{t:.6f}", "--seed", str(i)]
           for i, t in enumerate(taus)]
    return [ops[i] for i in rng.permutation(len(ops))]


def real_verify(rng, units: int) -> list:
    """N alternates 0, 0.5 along the batch; each stratum of |ln q| gets one
    operation of each N, on opposite sides of q = 1."""
    per_n = {N: stratified(rng, units, *LOG_Q_RANGE) for N in ("0", "0.5")}
    sides = rng.choice((-1.0, 1.0), units)
    order = rng.permutation(units)
    ops = []
    for i in order:
        for N, side in (("0", sides[i]), ("0.5", -sides[i])):
            q = math.exp(side * per_n[N][i])
            ops.append(["verify", "--suite", "all", "--q", f"{q:.6f}", "--N", N,
                        "--seed", str(i)])
    return ops


def _grid(rng, lo_range, hi_range) -> str:
    lo = rng.uniform(*lo_range)
    hi = rng.uniform(*hi_range)
    n = GRID_POINTS + int(rng.integers(-100, 101))
    return f"{lo:.4f}:{hi:.4f}:{n}"


def circle_forms(rng, units: int) -> list:
    """Per unit: gram at J-max 3/2 and at 5/2, and two evals each of L, Q and
    psi.  Three quarters of the operations are evals, so the median lands
    among them and the tail among the grams.  The J of Q and psi cycles with
    the stratum, so every batch has the same mix of costs."""
    counts = {"gram1.5": units, "gram2.5": units, "L": 2 * units, "Q": 2 * units,
              "psi": 2 * units}
    ops = []
    for kind, count in counts.items():
        for i, t in enumerate(_signed(rng, stratified(rng, count, *TAU_RANGE))):
            tau = f"{t:.6f}"
            if kind.startswith("gram"):
                ops.append(["gram", "--N", "0.5", "--J-max", kind[4:], "--tau", tau])
            elif kind == "L":
                ops.append(["eval", "--fn", "L", "--tau", tau,
                            "--grid", _grid(rng, (0.01, 0.05), (5.0, 10.0))])
            elif kind == "Q":
                J = ("0.5", "1.5", "2.5")[i % 3]
                ops.append(["eval", "--fn", "Q", "--J", J, "--tau", tau,
                            "--grid", _grid(rng, (0.01, 0.05), (5.0, 10.0))])
            else:
                J = (1.5, 2.5)[i % 2]
                M = J - float(rng.integers(0, int(2 * J) + 1))
                ops.append(["eval", "--fn", "psi", "--J", str(J), "--M", str(M), "--N", "0.5",
                            "--tau", tau, "--grid", _grid(rng, (0.01, 0.05), (2.0, 3.0))])
    return [ops[i] for i in rng.permutation(len(ops))]


GENERATORS = {
    "circle-verify": circle_verify,
    "real-verify": real_verify,
    "circle-forms": circle_forms,
}


def batch(workload: str, seed: int, seconds: float) -> list:
    """The argv list of one run: the same (workload, seed, seconds) always
    gives the same batch."""
    units = max(1, round(seconds / UNIT_SECONDS[workload]))
    return GENERATORS[workload](np.random.default_rng(seed), units)
