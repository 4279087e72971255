"""Command-line front end: eval (function tables), verify (suites), gram.

Exit codes: 0 success / all cases pass; 1 verification failure; 2 argument,
evaluation or out-of-memory errors.  Output is assembled in full before
printing, so a failure never leaves a partial table on stdout.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .qcore import HalfInt, QParam, Regime, j_values, q_factorial, q_number
from .qinner import gram as gram_matrix
from .qspecial import l_function, psi, q_function, r_polynomial, vilenkin
from .suites import GRAM_J_MAX, GRAM_TOL, SUITE_NAMES, run_suite, suite_args

SCHEMA_VERSION = 1  # of every JSON document the CLI prints

# the name of the scalar product that each regime fixes, as gram prints it
_FORM_NAMES = {
    Regime.CLASSICAL: "Classical",
    Regime.POSITIVE_REAL: "DeformedReal",
    Regime.UNIT_CIRCLE: "DeformedCircle",
}


# each function: the flags it reads, the one that supplies its evaluation
# point (which --grid replaces) first and then its half-integer parameters,
# and its values at (p, the points, the parameters)
_EVAL = {
    "qnum": (("x",), lambda p, pts: [q_number(float(x), p) for x in pts]),
    "qfact": (("x",), lambda p, pts: [q_factorial(x, p) for x in pts]),
    "R": (("eta", "J", "M", "N"), lambda p, pts, J, M, N: r_polynomial(J, M, N, p, pts)),
    "Q": (("eta", "J"), lambda p, pts, J: q_function(J, p, pts)),
    "L": (("eta",), lambda p, pts: l_function(p, pts)),
    "vilenkin": (("xi", "J", "M", "N"), lambda p, pts, J, M, N: vilenkin(J, M, N, p, pts)),
    "psi": (("rho", "J", "M", "N"), lambda p, pts, J, M, N: psi(J, M, N, p, pts, pts)),
}
EVAL_FNS = tuple(_EVAL)


def _parse_half(text: str, flag: str) -> HalfInt:
    try:
        return HalfInt.of(float(text))
    except ValueError:
        raise SystemExit(_fail(f"{flag} must be an integer or half-integer, got {text!r}"))


def _write_json(doc: dict) -> None:
    sys.stdout.write(json.dumps({"schema": SCHEMA_VERSION, **doc}, indent=2) + "\n")


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _reject_unread(what: str, flags: dict):
    """Exit 2 naming every flag in {flag: value} that was given, as `what`
    would ignore it."""
    unread = [flag for flag, value in flags.items() if value is not None]
    if unread:
        raise SystemExit(_fail(f"{what} does not read {', '.join(unread)}"))


def _param_from_args(args) -> QParam:
    if (args.q is None) == (args.tau is None):
        raise SystemExit(_fail("specify exactly one of --q or --tau"))
    if args.q is not None:
        return QParam.from_q(args.q)
    return QParam.unit_circle(args.tau)


def _grid(args, flag: str) -> np.ndarray:
    if args.grid is not None:
        _reject_unread(f"--fn {args.fn} with --grid", {f"--{flag}": getattr(args, flag)})
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise SystemExit(_fail("--grid must be lo:hi:n"))
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise SystemExit(_fail("--grid must be lo:hi:n with numeric fields"))
        if n < 1:
            raise SystemExit(_fail("--grid needs n >= 1"))
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite ends: rejected below
            pts = np.linspace(lo, hi, n)
        source = "--grid"
    else:
        value = getattr(args, flag, None)
        if value is None:
            raise SystemExit(_fail(f"--fn {args.fn} needs --{flag} or --grid"))
        pts, source = np.array([value], dtype=float), f"--{flag}"
    if not np.all(np.isfinite(pts)):
        raise SystemExit(_fail(f"{source} must give finite points"))
    return pts


def cmd_eval(args) -> int:
    p = _param_from_args(args)
    (point, *names), evaluate = _EVAL[args.fn]
    _reject_unread(f"--fn {args.fn}", {f"--{f}": getattr(args, f)
                                      for f in ("x", "eta", "xi", "rho", "J", "M", "N")
                                      if f not in (point, *names)})
    pts = _grid(args, point)
    for name in names:
        if getattr(args, name) is None:
            raise SystemExit(_fail(f"--fn {args.fn} requires --{name}"))
    params = {name: _parse_half(str(getattr(args, name)), f"--{name}") for name in names}
    vals = np.asarray(evaluate(p, pts, *params.values()), dtype=complex).reshape(-1)
    finite = np.isfinite(vals)
    if not finite.all():  # a product of finite factors can still overflow
        x = pts[np.argmin(finite)]
        raise SystemExit(_fail(f"--fn {args.fn} leaves the float range at {x:.17g}"))

    if args.format == "csv":
        header = f"# fn={args.fn}," + ",".join(
            [f"{k}={v}" for k, v in params.items()]
            + [f"{k}={v}" for k, v in p.describe().items()])
        lines = [header, "point,re,im"]
        lines += [f"{float(x):.17g},{v.real:.17g},{v.imag:.17g}" for x, v in zip(pts, vals)]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _write_json({
            "fn": args.fn,
            "params": {k: str(v) for k, v in params.items()},
            "q_descriptor": p.describe(),
            "rows": [{"point": float(x), "re": v.real, "im": v.imag}
                     for x, v in zip(pts, vals)],
        })
    return 0


def cmd_verify(args) -> int:
    p = _param_from_args(args)
    # each run_suite argument: the flag that supplies it and its value
    given = {"j_max": ("--J-max", args.J_max), "j_list": ("--J", args.J), "N": ("--N", args.N),
             "seed": ("--seed", args.seed), "tol": ("--tol", args.tol)}
    reads = suite_args(args.suite, p.regime)
    _reject_unread(f"--suite {args.suite}",
                   {flag: value for arg, (flag, value) in given.items() if arg not in reads})
    if args.J is not None:  # --J replaces the tower that --J-max would span
        _reject_unread(f"--suite {args.suite} with --J", {"--J-max": args.J_max})
    if args.seed is not None and args.seed < 0:
        raise SystemExit(_fail(f"--seed must be a non-negative integer, got {args.seed}"))
    if args.tol is not None and not 0 < args.tol < np.inf:  # nan too
        raise SystemExit(_fail(f"--tol must be a positive finite number, got {args.tol}"))
    j_max = None if args.J_max is None else _parse_half(str(args.J_max), "--J-max")
    j_list = None if args.J is None else [_parse_half(str(args.J), "--J")]
    N = None if args.N is None else _parse_half(str(args.N), "--N")
    start = time.perf_counter()
    cases = run_suite(args.suite, p, j_max=j_max, j_list=j_list, N=N,
                      seed=args.seed, tol=args.tol)
    runtime_ms = int(round((time.perf_counter() - start) * 1000))
    passed = all(c.passed for c in cases)
    _write_json({
        "suite": args.suite,
        "q_descriptor": p.describe(),
        "cases": [{"name": c.name, "residual": float(c.residual), "tol": float(c.tol),
                   "pass": c.passed} for c in cases],
        "pass": passed,
        "runtime_ms": runtime_ms,
    })
    return 0 if passed else 1


def cmd_gram(args) -> int:
    p = _param_from_args(args)
    kind = _FORM_NAMES[p.regime]
    N = _parse_half(str(args.N), "--N") if args.N is not None else HalfInt.of(0)
    if args.J is not None:
        _reject_unread("gram with --J", {"--J-max": args.J_max})
        j_list = [_parse_half(str(args.J), "--J")]
    else:
        j_max = _parse_half(str(args.J_max), "--J-max") if args.J_max is not None else GRAM_J_MAX
        j_list = j_values(N, j_max, p)  # refused before a tall tower's labels are made
    rep = gram_matrix(N, j_list, p)
    labels = [f"{J}:{M}" for (J, M) in rep.labels]
    rows = rep.matrix.tolist()  # the one read of the matrix, for either writer
    if args.format == "csv":
        lines = [
            "# gram,N=" + str(N) + ",J=" + ("|".join(str(HalfInt.of(J)) for J in j_list) or "(empty)")
            + ",kind=" + kind,
            f"# max_offdiag={rep.max_offdiag:.17g},max_diag_dev={rep.max_diag_dev:.17g}",
            "i,j,bra,ket,re,im",
        ]
        lines += [f"{i},{j},{labels[i]},{labels[j]},{v.real:.17g},{v.imag:.17g}"
                  for i, row in enumerate(rows) for j, v in enumerate(row)]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _write_json({
            "q_descriptor": p.describe(),
            "kind": kind,
            "N": str(N),
            "labels": labels,
            "matrix": [[[v.real, v.imag] for v in row] for row in rows],
            "max_offdiag": rep.max_offdiag,
            "max_diag_dev": rep.max_diag_dev,
        })
    # the basis is orthonormal: a matrix off the identity fails, as in the gram suite
    return 0 if rep.max_offdiag < GRAM_TOL and rep.max_diag_dev < GRAM_TOL else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suq2",
        description="Evaluate and verify the q-deformed special functions, "
                    "operators, and scalar products of the plane realization.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes exactly the flags it reads
    def add_common(sp):
        sp.add_argument("--q", type=float, help="positive real q (1 = classical)")
        sp.add_argument("--tau", type=float, help="circle parameter tau, q = exp(i tau)")
        sp.add_argument("--J", type=float, default=None)
        sp.add_argument("--N", type=float, default=None)

    def add_format(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_tower(sp):
        sp.add_argument("--J-max", type=float, default=None, dest="J_max")

    pe = sub.add_parser("eval", help="tabulate one function on a point or grid")
    add_common(pe)
    add_format(pe)
    pe.add_argument("--M", type=float, default=None)
    pe.add_argument("--fn", choices=EVAL_FNS, required=True)
    pe.add_argument("--x", type=float, default=None, help="argument for qnum/qfact")
    pe.add_argument("--eta", type=float, default=None)
    pe.add_argument("--xi", type=float, default=None)
    pe.add_argument("--rho", type=float, default=None, help="radial point for psi (u=v=rho)")
    pe.add_argument("--grid", type=str, default=None,
                    help="lo:hi:n; a negative lo needs the form --grid=lo:hi:n")
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run a verification suite, report JSON")
    add_common(pv)
    add_tower(pv)
    pv.add_argument("--suite", choices=SUITE_NAMES, required=True)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--tol", type=float, default=None)
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("gram", help="Gram matrix of a basis tower")
    add_common(pg)
    add_format(pg)
    add_tower(pg)
    pg.set_defaults(func=cmd_gram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, RuntimeError) as exc:
        return _fail(str(exc))
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        return _fail(str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
