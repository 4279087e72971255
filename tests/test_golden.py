"""Golden CLI outputs: every byte except runtime_ms must match the recording.

Each file under tests/golden/ was written by the CLI before the source
change it guards (the l_function memo and cached Gauss-Legendre rules, the
merge of the duplicated evaluators, the removal of unused options, the
blocked real-q infinite product, then the real-q product memo and the psi
record cache), so this test proves those changes alter no printed number.
The eight circle recordings (tau given) were written again after L moved
to a Gauss-Kronrod rule, which changes last bits on the circle only.  The
seven recordings that run the hermiticity suite (verify_all_q1.2,
verify_all_q0.7_N0.5_Jmax2.5, verify_all_q2.5_N0.5_seed3, verify_all_tau0.2,
verify_all_tau-0.12, verify_all_tau0.25_Jmax1.5 and
verify_hermiticity_q1.3_N0.5_seed3) were written again after the scalar
products of decomposed families moved from the plane grid to the
mode-matched radial path; only the adjoint and conjugate symmetry
residuals changed.  The eight recordings that run the matrix or funceq
suite were written again after those residuals were scaled by the terms
they compare; only the matrix and funceq residuals changed.  The eleven
verify_all recordings at the corners of the benchmark ranges (tau +-0.10
and 0.29 with seed 5; q = e^(+-0.1) and e^(+-1.0), each with N 0 and
N 1/2) were written before the stencils evaluated their operand on the
stacked dilations; three of them were written again after it
(verify_all_tau0.29_seed5, and verify_all_q0.904837 with N 0 and N 1/2),
as a stacked call moves the panels of L and the stop of the real-q
product, and with them the last bits of a few ladder and casimir
residuals.  The twelve recordings that run the limit suite (every verify
--suite all at real q, and at q = 1) were written again after the vilenkin
limit rows moved from two-point to three-point extrapolation; only those
four rows changed.  The twenty-six recordings that evaluate Q at a
half-integer J >= 3/2 in a deformed regime were written again after
q_function built that Q as Q_{1/2} divided by the finite-product factors,
in place of the infinite product or the L difference at J itself: the
eval recordings eval_Q_J1.5_q0.8, eval_psi_J1.5_M0.5_N0.5_q0.7,
eval_psi_J1.5_M0.5_N0.5_tau0.2 and eval_vilenkin_J2.5_M0.5_N1.5_q1.4,
gram_N0.5_Jmax1.5_tau0.2, and every verify recording but verify_all_q1.
Values moved in the last bits only (at most 1.9e-15 relative in the eval
recordings); every exit code and pass flag held, and no verify
recording's worst residual/tol grew.  The twenty recordings that draw
sample points or span pairs (every verify_all recording but
verify_all_q1, verify_casimir_q0.8_Jmax2,
verify_hermiticity_q1.3_N0.5_seed3 and
verify_ladder_tau0.2_Jmax1.5_tol1e-9) were written again after those
draws moved from numpy.random to the standard library's random.Random:
only the ladder, casimir, adjoint and conjugate symmetry residuals moved,
as they are taken at other points, and every exit code and pass flag
held.  The twelve recordings that run the limit suite were written again
after its vilenkin limit tolerance went from 1e-6 to 1e-9; only the tol
fields of the four vilenkin limit rows changed.  The twenty-eight
recordings that evaluate psi or vilenkin (the psi and vilenkin eval
recordings, the three gram recordings and every verify recording but
verify_funceq_q0.8_J1.5) were written again after R took its coefficients
by term ratios and its sum by Horner's rule, and vilenkin became psi on
the diagonal.  Values moved in the last bits only (at most 4.4e-16 of the
largest value of an eval or gram table); every exit code and pass flag
held, and no verify recording's worst residual/tol grew by more than 4%
(verify_hermiticity_q1.3_N0.5_seed3, 1.394e-7 to 1.448e-7).  Running

    PYTHONPATH=src python tests/test_golden.py

writes only the recordings that do not exist yet; an existing file is never
overwritten.  To re-record one after a deliberate change of output, delete
it first.
"""
import contextlib
import io
import pathlib
import re

import pytest

from suq2 import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "verify_all_tau0.2.json": ["verify", "--suite", "all", "--tau", "0.2"],
    "verify_all_tau-0.12.json": ["verify", "--suite", "all", "--tau", "-0.12"],
    "eval_L_tau0.2.csv": ["eval", "--fn", "L", "--tau", "0.2", "--grid", "0.25:4:7"],
    "eval_Q_J0.5_tau-0.3.csv": ["eval", "--fn", "Q", "--J", "0.5", "--tau", "-0.3",
                                "--grid", "0.25:4:7"],
    "gram_N0_Jmax2_q1.2.csv": ["gram", "--N", "0", "--J-max", "2", "--q", "1.2"],
    "gram_N0.5_Jmax1.5_tau0.2.json": ["gram", "--N", "0.5", "--J-max", "1.5", "--tau", "0.2",
                                      "--format", "json"],
    "verify_all_q1.2.json": ["verify", "--suite", "all", "--q", "1.2"],
    "verify_all_q0.7_N0.5_Jmax2.5.json": ["verify", "--suite", "all", "--q", "0.7",
                                          "--N", "0.5", "--J-max", "2.5"],
    "verify_all_tau0.25_Jmax1.5.json": ["verify", "--suite", "all", "--tau", "0.25",
                                        "--J-max", "1.5"],
    "verify_ladder_tau0.2_Jmax1.5_tol1e-9.json": ["verify", "--suite", "ladder", "--tau", "0.2",
                                                  "--J-max", "1.5", "--tol", "1e-9"],
    "verify_funceq_q0.8_J1.5.json": ["verify", "--suite", "funceq", "--q", "0.8", "--J", "1.5"],
    "verify_hermiticity_q1.3_N0.5_seed3.json": ["verify", "--suite", "hermiticity", "--q", "1.3",
                                                "--N", "0.5", "--seed", "3"],
    "eval_R_J2_M1_N0_q1.5.csv": ["eval", "--fn", "R", "--J", "2", "--M", "1", "--N", "0",
                                 "--q", "1.5", "--grid", "0.25:4:7"],
    "eval_psi_J1.5_M0.5_N0.5_tau0.2.csv": ["eval", "--fn", "psi", "--J", "1.5", "--M", "0.5",
                                           "--N", "0.5", "--tau", "0.2", "--grid", "0.25:3:7"],
    "eval_vilenkin_J2_M1_N0_q1.5.csv": ["eval", "--fn", "vilenkin", "--J", "2", "--M", "1",
                                        "--N", "0", "--q", "1.5", "--grid=-0.8:0.8:7"],
    "verify_all_q1.json": ["verify", "--suite", "all", "--q", "1"],
    "verify_casimir_q0.8_Jmax2.json": ["verify", "--suite", "casimir", "--q", "0.8",
                                       "--J-max", "2"],
    "gram_N1_Jmax3_q0.9.csv": ["gram", "--N", "1", "--J-max", "3", "--q", "0.9"],
    "eval_qfact_q1.3.csv": ["eval", "--fn", "qfact", "--q", "1.3", "--grid", "0:6:7"],
    "eval_qnum_tau0.4.json": ["eval", "--fn", "qnum", "--tau", "0.4", "--grid=-2:2:9",
                              "--format", "json"],
    "eval_Q_J1.5_q0.8.csv": ["eval", "--fn", "Q", "--J", "1.5", "--q", "0.8",
                             "--grid", "0.01:50:9"],
    "eval_Q_J0.5_q1.3.csv": ["eval", "--fn", "Q", "--J", "0.5", "--q", "1.3",
                             "--grid", "0.01:50:9"],
    "eval_psi_J1.5_M0.5_N0.5_q0.7.csv": ["eval", "--fn", "psi", "--J", "1.5", "--M", "0.5",
                                         "--N", "0.5", "--q", "0.7", "--grid", "0.25:3:7"],
    "eval_vilenkin_J2.5_M0.5_N1.5_q1.4.csv": ["eval", "--fn", "vilenkin", "--J", "2.5",
                                              "--M", "0.5", "--N", "1.5", "--q", "1.4",
                                              "--grid=-0.9:0.9:7"],
    "verify_all_q2.5_N0.5_seed3.json": ["verify", "--suite", "all", "--q", "2.5", "--N", "0.5",
                                        "--seed", "3"],
    # the corners of the benchmark ranges: |tau| 0.10 to 0.30, |ln q| 0.1 to 1.0
    "verify_all_tau0.1_seed5.json": ["verify", "--suite", "all", "--tau", "0.10", "--seed", "5"],
    "verify_all_tau-0.1_seed5.json": ["verify", "--suite", "all", "--tau", "-0.10",
                                      "--seed", "5"],
    "verify_all_tau0.29_seed5.json": ["verify", "--suite", "all", "--tau", "0.29", "--seed", "5"],
    "verify_all_q1.105171_N0.json": ["verify", "--suite", "all", "--q", "1.105171", "--N", "0"],
    "verify_all_q1.105171_N0.5.json": ["verify", "--suite", "all", "--q", "1.105171", "--N", "0.5"],
    "verify_all_q0.904837_N0.json": ["verify", "--suite", "all", "--q", "0.904837", "--N", "0"],
    "verify_all_q0.904837_N0.5.json": ["verify", "--suite", "all", "--q", "0.904837", "--N", "0.5"],
    "verify_all_q2.718282_N0.json": ["verify", "--suite", "all", "--q", "2.718282", "--N", "0"],
    "verify_all_q2.718282_N0.5.json": ["verify", "--suite", "all", "--q", "2.718282", "--N", "0.5"],
    "verify_all_q0.367879_N0.json": ["verify", "--suite", "all", "--q", "0.367879", "--N", "0"],
    "verify_all_q0.367879_N0.5.json": ["verify", "--suite", "all", "--q", "0.367879", "--N", "0.5"],
}

_RUNTIME = re.compile(r'"runtime_ms": \d+')


def render(argv) -> str:
    """Exit code plus stdout of one CLI call, runtime_ms masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit={code}\n" + _RUNTIME.sub('"runtime_ms": 0', out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    want = (GOLDEN_DIR / name).read_text()
    assert render(CASES[name]) == want


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN_DIR / name
        if not path.exists():
            path.write_text(render(argv))
            print(f"recorded {path}")
