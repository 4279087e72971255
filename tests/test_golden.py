"""Golden CLI outputs: every byte except runtime_ms must match the recording.

Each file under tests/golden/ was written by the CLI before the source
change it guards, so this test proves such a change alters no printed
number.  A change that moves output on purpose re-records the files it
moves in a commit of its own; CHANGES.md lists every re-record, the files
it touched and why.  Running

    PYTHONPATH=src python tests/test_golden.py

writes only the recordings that do not exist yet; an existing file is never
overwritten.  To re-record one after a deliberate change of output, delete
it first.  Running

    PYTHONPATH=src python tests/test_golden.py --compare

writes nothing: for each recording that the CLI no longer reproduces it
prints any change of exit code or pass flag, and for a verify recording
the worst residual/tol before and after and the largest rise and fall of
a residual, for any other the largest value change relative to the
largest value of the recording and how many entries changed only the sign
of a zero.
"""
import contextlib
import io
import json
import math
import pathlib
import re
import sys

import numpy as np
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
    # circle hermiticity at half-integer J, where Q_{1/2} is asked for most often
    "verify_all_tau0.2_N0.5_seed3.json": ["verify", "--suite", "all", "--tau", "0.2",
                                          "--N", "0.5", "--seed", "3"],
    # psi at large eta, where eta^J overflows and Q_J underflows: every step of
    # the recurrence in J stays bounded
    "eval_psi_J20_M3_N0_q1_far.csv": ["eval", "--fn", "psi", "--J", "20", "--M", "3",
                                      "--N", "0", "--q", "1", "--grid", "1e4:3e9:5"],
    "eval_psi_J20.5_M0.5_N0.5_q1.3_far.csv": ["eval", "--fn", "psi", "--J", "20.5",
                                              "--M", "0.5", "--N", "0.5", "--q", "1.3",
                                              "--grid", "1e4:3e9:5"],
    "eval_psi_J20.5_M-1.5_N0.5_tau0.05_far.csv": ["eval", "--fn", "psi", "--J", "20.5",
                                                  "--M", "-1.5", "--N", "0.5", "--tau", "0.05",
                                                  "--grid", "1e4:3e9:5"],
    # the reach of the recurrence in J: R at J 60 (the alternating sum printed
    # 7219870178.3125 at eta 0.5), psi at J 40 on the circle, a J-30 gram tower
    "eval_R_J60_M0_N0_q1.csv": ["eval", "--fn", "R", "--J", "60", "--M", "0", "--N", "0",
                                "--q", "1", "--grid", "0.25:4:7"],
    "eval_psi_J40_M3_N0_tau0.03.csv": ["eval", "--fn", "psi", "--J", "40", "--M", "3",
                                       "--N", "0", "--tau", "0.03", "--grid", "0.25:4:7"],
    "verify_gram_q1_N0_J30.json": ["verify", "--suite", "gram", "--q", "1", "--N", "0",
                                   "--J", "30"],
    # the reach of L by its inversion identity: the radial nodes at tau 0.01,
    # N 1/2, and |eta| up to 1e80 at tau 0.05, where L raised "did not converge"
    "verify_all_tau0.01_N0.5_seed3.json": ["verify", "--suite", "all", "--tau", "0.01",
                                           "--N", "0.5", "--seed", "3"],
    "eval_L_tau0.05_far.csv": ["eval", "--fn", "L", "--tau", "0.05", "--grid", "1e79:1e80:3"],
    # towers of several weights in each regime, where the unlike-M entries are
    # exact zeros and the diagonal keeps its own value
    "gram_N0_Jmax4_q1.csv": ["gram", "--q", "1", "--N", "0", "--J-max", "4"],
    "gram_N0.5_Jmax3.5_tau0.05.json": ["gram", "--tau", "0.05", "--N", "0.5", "--J-max", "3.5",
                                       "--format", "json"],
    "gram_N0.5_Jmax3.5_q1.3.csv": ["gram", "--q", "1.3", "--N", "0.5", "--J-max", "3.5"],
    # the whole-tower adjoint identity: half-integer N at real q, a tower past
    # J-max 3 on the circle, and negative N
    "verify_hermiticity_q1.3_N0.5.json": ["verify", "--suite", "hermiticity", "--q", "1.3",
                                          "--N", "0.5"],
    "verify_hermiticity_tau0.2_N1_Jmax4.json": ["verify", "--suite", "hermiticity", "--tau", "0.2",
                                                "--N", "1", "--J-max", "4"],
    "verify_hermiticity_q0.7_N-0.5_Jmax3.5.json": ["verify", "--suite", "hermiticity",
                                                   "--q", "0.7", "--N", "-0.5",
                                                   "--J-max", "3.5"],
    # the one Casimir table on a tower past J-max 3, at negative tau
    "verify_casimir_tau-0.15_Jmax4.5.json": ["verify", "--suite", "casimir", "--tau", "-0.15",
                                             "--J-max", "4.5"],
    # psi's start at the ends of eta: a J-30 circle tower, whose starts run
    # scaled by powers of 2, and J-12 rows at small and at large eta
    "gram_N0_J30_tau0.03.csv": ["gram", "--tau", "0.03", "--N", "0", "--J", "30"],
    "eval_psi_J12_M5_N3_q0.7_near.csv": ["eval", "--fn", "psi", "--J", "12", "--M", "5",
                                         "--N", "3", "--q", "0.7", "--grid", "1e-5:1e-2:40"],
    "eval_psi_J12.5_M-3.5_N0.5_tau0.05_far.csv": ["eval", "--fn", "psi", "--J", "12.5",
                                                  "--M", "-3.5", "--N", "0.5", "--tau", "0.05",
                                                  "--grid", "1e4:1e9:40"],
}

_RUNTIME = re.compile(r'"runtime_ms": \d+')


def render(argv) -> str:
    """Exit code plus stdout of one CLI call, runtime_ms masked; a flag the
    CLI refuses before it runs (its SystemExit) is its exit code too."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit={code}\n" + _RUNTIME.sub('"runtime_ms": 0', out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    want = (GOLDEN_DIR / name).read_text()
    assert render(CASES[name]) == want



def test_compare_names_what_moved(tmp_path, capsys):
    before = (GOLDEN_DIR / "verify_funceq_q0.8_J1.5.json").read_text()
    doc = json.loads(before.split("\n", 1)[1])
    case = doc["cases"][0]
    case["residual"], case["pass"] = 2 * case["tol"], False
    after = "exit=1\n" + json.dumps(doc, indent=2) + "\n"
    report = compare("verify", before, after)
    assert "exit=0 -> exit=1" in report
    assert f"pass {case['name']}: True -> False" in report
    assert f"-> 2.000e+00 ({case['name']})" in report
    table = (GOLDEN_DIR / "gram_N0_Jmax2_q1.2.csv").read_text()
    lines = table.split("\n")
    row = lines[4].split(",")  # after exit=, two # lines and the header
    row[4] = repr(float(row[4]) + 1e-12)
    moved = "\n".join(lines[:4] + [",".join(row)] + lines[5:])
    assert "largest value change 1.00e-12 of the largest |value| 1" in compare("gram", table, moved)
    matrix = (GOLDEN_DIR / "gram_N0.5_Jmax1.5_tau0.2.json").read_text()
    doc = json.loads(matrix.split("\n", 1)[1])
    doc["matrix"][0][3][0] += 1e-12
    moved = "exit=0\n" + json.dumps(doc, indent=2) + "\n"
    assert "largest value change 1.00e-12 of the largest |value| 1" in compare("gram", matrix, moved)
    assert "sign of a zero" not in compare("gram", matrix, moved)
    # a zero that turns into -0 moves the bytes but no value
    flipped = table.replace(",0,0\n", ",-0,-0\n", 1)
    report = compare("gram", table, flipped)
    assert flipped != table and "largest value change 0.00e+00" in report
    assert "2 entries changed only the sign of a zero" in report
    # --compare: a moved value alone exits 0; a moved exit code or pass flag exits 1
    names = ["eval_qnum_tau0.4.json", "verify_funceq_q0.8_J1.5.json"]
    cases = {name: CASES[name] for name in names}
    texts = {name: (GOLDEN_DIR / name).read_text() for name in names}

    def run(edit):
        for name in names:
            (tmp_path / name).write_text(edit.get(name, lambda t: t)(texts[name]))
        code = compare_all(cases, tmp_path)
        return code, capsys.readouterr().out

    assert run({}) == (0, "all 2 recordings match\n")
    code, out = run({names[0]: lambda t: t.replace('"re": 1.0', '"re": 1.5', 1)})
    assert code == 0 and "largest value change" in out
    code, out = run({names[0]: lambda t: t.replace("exit=0", "exit=1", 1)})
    assert code == 1 and "exit=1 -> exit=0" in out

    def flip(text):
        doc = json.loads(text.split("\n", 1)[1])
        doc["cases"][0]["pass"] = False
        return "exit=0\n" + json.dumps(doc, indent=2) + "\n"
    code, out = run({names[1]: flip})
    assert code == 1 and "False -> True" in out

def _values(text) -> list:
    """The printed values of an eval or gram rendering, in order: the re and
    im columns of a CSV table, the re and im of each JSON row, the entries
    of a JSON matrix."""
    body = text.split("\n", 1)[1]
    try:
        doc = json.loads(body)
    except ValueError:
        rows = [line.split(",") for line in body.splitlines() if not line.startswith("#")]
        if not rows:
            return []
        cols = [rows[0].index("re"), rows[0].index("im")]
        return [float(row[c]) for row in rows[1:] for c in cols]
    if "rows" in doc:
        return [row[k] for row in doc["rows"] for k in ("re", "im")]
    return np.ravel(doc.get("matrix", [])).tolist()


def _cases(text):
    """{case name: (residual, tol, pass)} of a verify rendering, else None."""
    try:
        doc = json.loads(text.split("\n", 1)[1])
    except ValueError:
        return None
    if not isinstance(doc, dict) or "cases" not in doc:
        return None
    return {c["name"]: (c["residual"], c["tol"], c["pass"]) for c in doc["cases"]}


def _worst(cases) -> str:
    name, (res, tol, _) = max(cases.items(), key=lambda kv: kv[1][0] / kv[1][1])
    return f"{res / tol:.3e} ({name})"


def compare(name, before, after) -> str:
    """What moved between two renderings of one recording: the exit code,
    and for a verify recording the worst residual/tol, the residuals that
    rose and fell with the largest rise and fall measured in tol, moved
    tolerances and every pass flag that changed; for any other, the largest
    value change relative to the largest |value| recorded and the number of
    entries whose only change is the sign of a zero."""
    lines = [name]
    exit_before, exit_after = before.split("\n", 1)[0], after.split("\n", 1)[0]
    if exit_before != exit_after:
        lines.append(f"  {exit_before} -> {exit_after}")
    cb, ca = _cases(before), _cases(after)
    if cb is not None and ca is not None:
        lines.append(f"  worst residual/tol {_worst(cb)} -> {_worst(ca)}")
        moved = [k for k in cb.keys() & ca.keys() if ca[k][0] != cb[k][0]]
        rose = [k for k in moved if ca[k][0] > cb[k][0]]
        if moved:
            lines.append(f"  {len(moved)} of {len(ca)} residuals moved: {len(rose)} rose, "
                         f"{len(moved) - len(rose)} fell")
        for label, keys in (("rise", rose), ("fall", [k for k in moved if k not in rose])):
            if keys:
                k = max(keys, key=lambda k: abs(ca[k][0] - cb[k][0]) / ca[k][1])
                lines.append(f"  largest {label} {cb[k][0]:.3e} -> {ca[k][0]:.3e} "
                             f"({k}, tol {ca[k][1]:g})")
        tols = sorted(k for k in cb.keys() & ca.keys() if ca[k][1] != cb[k][1])
        if tols:
            lines.append(f"  tol moved in {len(tols)} cases: " + ", ".join(
                f"{k} {cb[k][1]:g} -> {ca[k][1]:g} (residual/tol {ca[k][0] / ca[k][1]:.2e})"
                for k in tols))
        for k in sorted(cb.keys() | ca.keys()):
            flag_before = cb[k][2] if k in cb else "absent"
            flag_after = ca[k][2] if k in ca else "absent"
            if flag_before != flag_after:
                lines.append(f"  pass {k}: {flag_before} -> {flag_after}")
        return "\n".join(lines)
    nb, na = _values(before), _values(after)
    if len(nb) != len(na):
        lines.append(f"  {len(nb)} -> {len(na)} values")
        return "\n".join(lines)
    scale = max((abs(x) for x in nb if math.isfinite(x)), default=0.0) or 1.0
    change = max((abs(a - b) for a, b in zip(nb, na) if a != b), default=0.0)
    lines.append(f"  largest value change {change / scale:.2e} of the largest |value| {scale:.6g}")
    signs = sum(a == b == 0 and math.copysign(1, a) != math.copysign(1, b) for a, b in zip(nb, na))
    if signs:  # 0 and -0 compare equal, yet they print differently
        lines.append(f"  {signs} entries changed only the sign of a zero")
    return "\n".join(lines)


def flags_moved(before, after) -> bool:
    """Whether the exit code or any pass flag differs between two renderings."""
    if before.split("\n", 1)[0] != after.split("\n", 1)[0]:
        return True
    cb, ca = _cases(before), _cases(after)
    if cb is None or ca is None:
        return False
    return any((cb[k][2] if k in cb else None) != (ca[k][2] if k in ca else None)
               for k in cb.keys() | ca.keys())


def compare_all(cases, golden_dir) -> int:
    """Print what moved in each recording of cases under golden_dir that the
    CLI no longer reproduces; 1 if an exit code or a pass flag moved, else 0."""
    reports, moved = [], False
    for name, argv in cases.items():
        path = golden_dir / name
        if path.exists():
            before, after = path.read_text(), render(argv)
            if before != after:
                reports.append(compare(name, before, after))
                moved = moved or flags_moved(before, after)
    print("\n".join(reports) if reports else f"all {len(cases)} recordings match")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--compare"]:
        sys.exit(compare_all(CASES, GOLDEN_DIR))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN_DIR / name
        if not path.exists():
            path.write_text(render(argv))
            print(f"recorded {path}")
