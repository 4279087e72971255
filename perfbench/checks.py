"""Output checks, run by run.py after the batch, outside the timed region.

Each check returns whether the operation succeeded (``ok``), whether its
output is what the program claims it is (``consistent``: a verify report
whose pass flags match its residuals and exit code, a Gram matrix whose
printed deviation scalars match its entries, an eval table whose values
satisfy their identities), and the accuracy headroom log10(tol / residual)
of every residual it looked at.

A verify case that misses its tolerance makes the operation fail but leaves
it consistent: the program reported the miss.  A printed number that fails
an identity, with exit 0, is inconsistent: a silent wrong number.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from suq2.cli import build_parser
from suq2.qcore import HalfInt, QParam, m_values
from suq2.qspecial import l_function, psi, q_function
from suq2.suites import FUNCEQ_TOL_INTEGRAL, FUNCEQ_TOL_PRODUCT, GRAM_TOL

L_EQ_TOL = 1e-9          # L(q eta) - L(eta/q) = Log(1+eta), as in the acceptance gate
AGREE_TOL = 1e-10        # printed value against a direct library call on a subsample
SUBSAMPLE = 16           # grid points re-derived per eval operation


@dataclass
class Check:
    ok: bool
    consistent: bool
    headroom: list = field(default_factory=list)
    cases: int = 0
    cases_failed: int = 0
    detail: str = ""


def digits(tol: float, residual: float) -> float:
    """log10(tol / residual); zero residuals are floored at 1e-300."""
    if not math.isfinite(residual):
        residual = 1e300
    return math.log10(tol / max(residual, 1e-300))


def check(argv: list, code: int, stdout: str) -> Check:
    """Check one operation from its argv, exit code and stdout."""
    try:
        if argv[0] == "verify":
            return _verify(code, stdout)
        args = build_parser().parse_args(argv)
        if argv[0] == "gram":
            return _gram(args, code, stdout)
        return _eval(args, code, stdout)
    except (ValueError, TypeError, KeyError, IndexError, RuntimeError) as exc:
        return Check(False, False, detail=f"unreadable output: {exc!r}")


def _verify(code: int, stdout: str) -> Check:
    doc = json.loads(stdout)
    headroom, failed, consistent = [], [], True
    for case in doc["cases"]:
        res, tol = float(case["residual"]), float(case["tol"])
        passed = math.isfinite(res) and res < tol
        consistent &= case["pass"] == passed
        if not passed:
            failed.append(case["name"])
        headroom.append(digits(tol, res))
    all_pass = not failed
    consistent &= doc["pass"] == all_pass and code == (0 if all_pass else 1)
    return Check(consistent and all_pass, consistent, headroom, len(doc["cases"]),
                 len(failed), "failed cases: " + ", ".join(failed) if failed else "")


def _gram(args, code: int, stdout: str) -> Check:
    lines = stdout.splitlines()
    scalars = dict(kv.split("=") for kv in lines[1].lstrip("# ").split(","))
    rows = [line.split(",") for line in lines[3:]]
    N = HalfInt.of(args.N)
    tower = range(abs(N.twice), HalfInt.of(args.J_max).twice + 1, 2)
    n = sum(len(m_values(HalfInt(t))) for t in tower)
    mat = np.zeros((n, n), dtype=complex)
    for r in rows:
        mat[int(r[0]), int(r[1])] = complex(float(r[4]), float(r[5]))
    off = float(np.max(np.abs(mat - np.diag(np.diag(mat)))))
    diag = float(np.max(np.abs(np.diag(mat) - 1.0)))
    printed_off, printed_diag = float(scalars["max_offdiag"]), float(scalars["max_diag_dev"])
    consistent = (code == 0 and len(rows) == n * n
                  and abs(off - printed_off) <= 1e-15 and abs(diag - printed_diag) <= 1e-15)
    ok = consistent and max(off, diag) < GRAM_TOL
    return Check(ok, consistent, [digits(GRAM_TOL, off), digits(GRAM_TOL, diag)],
                 detail="" if ok else f"deviations {off:.3e}, {diag:.3e} (tol {GRAM_TOL:g})")


def _eval(args, code: int, stdout: str) -> Check:
    lines = stdout.splitlines()
    table = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    lo, hi, n = args.grid.split(":")
    grid = np.linspace(float(lo), float(hi), int(n))
    if code != 0 or table.shape != (grid.size, 3) or not np.array_equal(table[:, 0], grid):
        return Check(False, False, detail="table does not match the requested grid")
    idx = np.unique(np.linspace(0, grid.size - 1, SUBSAMPLE).astype(int))
    x = grid[idx]
    printed = table[idx, 1] + 1j * table[idx, 2]
    p = QParam.unit_circle(args.tau) if args.tau is not None else QParam.from_q(args.q)
    if args.fn == "L":
        agree = float(np.max(np.abs(printed - l_function(p, x))))
        q = p.complex_value()
        eq = float(np.max(np.abs(l_function(p, q * x) - l_function(p, x / q) - np.log1p(x))))
        checked = [("agreement", agree, AGREE_TOL), ("L equation", eq, L_EQ_TOL)]
    elif args.fn == "Q":
        J = HalfInt.of(args.J)
        lhs = np.asarray(q_function(J, p, p.power(2) * x)) * (1 + x)
        rhs = printed * (1 + p.power(-2.0 * float(J)) * x)
        res = float(np.max(np.abs(lhs - rhs) / np.abs(printed)))
        tol = FUNCEQ_TOL_PRODUCT if J.is_integer() or args.q is not None else FUNCEQ_TOL_INTEGRAL
        checked = [("Q functional equation", res, tol)]
    elif args.fn == "psi":
        direct = np.asarray(psi(args.J, args.M, args.N, p, x, x))
        res = float(np.max(np.abs(printed - direct))) / max(1.0, float(np.max(np.abs(direct))))
        checked = [("agreement", res, AGREE_TOL)]
    else:
        raise ValueError(f"no output check for eval --fn {args.fn}")
    bad = [f"{name} {res:.3e} (tol {tol:g})" for name, res, tol in checked
           if not (math.isfinite(res) and res < tol)]
    return Check(not bad, not bad, [digits(tol, res) for _, res, tol in checked],
                 detail=", ".join(bad))
