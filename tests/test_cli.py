"""Command-line contract: exit codes, table formats, report schema, and
byte determinism."""
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from suq2 import cli, qinner, suites
from suq2.qcore import HalfInt

TAU_23 = math.pi / 23


def run(argv, capsys):
    """Invoke the CLI; normalize SystemExit into a return code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    out, err = capsys.readouterr()
    return code, out, err


def csv_rows(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0].split(",")[0] in ("point", "i")
    return [ln.split(",") for ln in lines[1:]]


class TestEval:
    def test_q_finite_product_value(self, capsys):
        code, out, _ = run(["eval", "--fn", "Q", "--J", "1", "--q", "2",
                            "--eta", "1"], capsys)
        assert code == 0
        ((pt, re, im),) = csv_rows(out)
        assert float(pt) == 1.0
        assert abs(float(re) - 0.8) < 1e-15 and float(im) == 0.0

    def test_qnum_zero(self, capsys):
        code, out, _ = run(["eval", "--fn", "qnum", "--x", "0", "--q", "2"], capsys)
        assert code == 0
        ((_, re, im),) = csv_rows(out)
        assert float(re) == 0.0 and float(im) == 0.0

    def test_vilenkin_trivial_one(self, capsys):
        code, out, _ = run(["eval", "--fn", "vilenkin", "--J", "0", "--M", "0",
                            "--N", "0", "--q", "1.5", "--xi", "0.3"], capsys)
        assert code == 0
        ((_, re, im),) = csv_rows(out)
        assert abs(float(re) - 1.0) < 1e-15 and float(im) == 0.0

    def test_qfact_csv_exact(self, capsys):
        code, out, _ = run(["eval", "--fn", "qfact", "--x", "3", "--q", "2"], capsys)
        assert code == 0
        ((_, re, _),) = csv_rows(out)
        assert float(re) == 13.125

    def test_grid_row_count_and_header(self, capsys):
        code, out, _ = run(["eval", "--fn", "R", "--J", "1", "--M", "0", "--N", "0",
                            "--q", "2", "--grid", "0.5:2:4"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("# fn=R,J=1,M=0,N=0,")
        rows = csv_rows(out)
        assert len(rows) == 4
        # R for this label is 1 - eta
        assert abs(float(rows[0][1]) - 0.5) < 1e-15
        assert abs(float(rows[3][1]) + 1.0) < 1e-15

    def test_grid_with_a_negative_start(self, capsys):
        # --grid=lo:hi:n, as argparse takes "-0.9:0.9:3" after a space for a flag
        code, out, _ = run(["eval", "--fn", "vilenkin", "--J", "1", "--M", "0", "--N", "0",
                            "--q", "1.2", "--grid=-0.9:0.9:3"], capsys)
        assert code == 0
        assert [float(row[0]) for row in csv_rows(out)] == [-0.9, 0.0, 0.9]

    def test_json_document_shape(self, capsys):
        code, out, _ = run(["eval", "--fn", "L", "--tau", str(math.pi / 2),
                            "--eta", "1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["fn"] == "L"
        assert doc["q_descriptor"]["regime"] == "UnitCircle"
        (row,) = doc["rows"]
        assert abs(row["im"] - (-0.32724923474893679)) < 1e-10
        assert abs(row["re"]) < 1e-12

    def test_psi_diagonal_slice(self, capsys):
        code, out, _ = run(["eval", "--fn", "psi", "--J", "0", "--M", "0",
                            "--N", "0", "--q", "1.2", "--rho", "0.7"], capsys)
        assert code == 0
        ((_, re, _),) = csv_rows(out)
        assert abs(float(re) - 1 / math.sqrt(2 * math.pi)) < 1e-15

    def test_lf_line_endings(self, capsys):
        _, out, _ = run(["eval", "--fn", "qnum", "--x", "2", "--q", "2"], capsys)
        assert "\r" not in out and out.endswith("\n")

    @pytest.mark.parametrize("tau,eta", [("0.05", "1e80"), ("1", "1e230"), ("0.2", "1e300")])
    def test_l_at_large_eta(self, tau, eta, capsys):
        # L sized its panels by |eta|, and here raised "did not converge"
        # after numpy's overflow warnings; within |L(1/eta)|, about 1/eta, it
        # is sigma [(ln eta)^2/(2 alpha) + pi^2 (alpha + 1/alpha)/6] / (2 pi i)
        code, out, err = run(["eval", "--fn", "L", "--tau", tau, "--eta", eta], capsys)
        assert code == 0 and err == ""
        ((_, re, im),) = csv_rows(out)
        alpha, x = float(tau) / math.pi, math.log(float(eta))
        want = -(x * x / (2 * alpha) + math.pi ** 2 * (alpha + 1 / alpha) / 6) / (2 * math.pi)
        assert abs(float(re)) <= 1e-15 * abs(want) and abs(float(im) - want) <= 1e-15 * abs(want)


class TestEvalErrors:
    def test_missing_point_flag(self, capsys):
        code, _, err = run(["eval", "--fn", "Q", "--J", "1", "--q", "2"], capsys)
        assert code == 2 and "error:" in err

    def test_q_and_tau_both_given(self, capsys):
        code, _, err = run(["eval", "--fn", "qnum", "--x", "1", "--q", "2",
                            "--tau", "0.3"], capsys)
        assert code == 2 and "exactly one" in err

    def test_neither_q_nor_tau(self, capsys):
        code, _, err = run(["eval", "--fn", "qnum", "--x", "1"], capsys)
        assert code == 2 and "exactly one" in err

    def test_quarter_spin_rejected(self, capsys):
        code, _, err = run(["eval", "--fn", "Q", "--J", "0.25", "--q", "2",
                            "--eta", "1"], capsys)
        assert code == 2 and "half-integer" in err

    def test_bad_grid_spec(self, capsys):
        code, _, err = run(["eval", "--fn", "qnum", "--q", "2",
                            "--grid", "1:2"], capsys)
        assert code == 2 and "lo:hi:n" in err

    @pytest.mark.parametrize("grid,msg", [("a:b:3", "--grid must be lo:hi:n with numeric fields"),
                                          ("0:1:0", "--grid needs n >= 1")])
    def test_grid_fields_rejected(self, grid, msg, capsys):
        code, out, err = run(["eval", "--fn", "qnum", "--q", "2", "--grid", grid], capsys)
        assert code == 2 and out == "" and err == f"error: {msg}\n"

    def test_r_without_n_rejected(self, capsys):
        code, out, err = run(["eval", "--fn", "R", "--J", "1", "--M", "0", "--q", "1.5",
                              "--eta", "0.5"], capsys)
        assert code == 2 and out == "" and err == "error: --fn R requires --N\n"

    def test_qfact_non_integer_point(self, capsys):
        code, _, err = run(["eval", "--fn", "qfact", "--x", "1.5", "--q", "2"], capsys)
        assert code == 2 and "integer" in err

    def test_qfact_near_integer_point(self, capsys):
        # within 1e-12 of 3 but not 3: q_factorial refuses it, so eval does
        code, out, err = run(["eval", "--fn", "qfact", "--x", "3.0000000000001", "--q", "1.5"],
                             capsys)
        assert code == 2 and out == ""
        assert "error: q_factorial needs an integer, got 3.0000000000001" in err

    def test_l_real_regime_rejected(self, capsys):
        code, _, err = run(["eval", "--fn", "L", "--q", "2", "--eta", "1"], capsys)
        assert code == 2 and "unit-circle" in err

    def test_negative_q_rejected(self, capsys):
        code, _, err = run(["eval", "--fn", "qnum", "--x", "1", "--q", "-2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("q", ["inf", "nan"])
    def test_non_finite_q_rejected(self, q, capsys):
        code, out, err = run(["eval", "--fn", "Q", "--J", "0.5", "--q", q,
                              "--eta", "1"], capsys)
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["--fn", "R", "--J", "1", "--M", "0", "--N", "0", "--q", "2", "--eta", "nan"],
        ["--fn", "psi", "--J", "1", "--M", "0", "--N", "0", "--tau", "0.2", "--rho", "nan"],
        ["--fn", "vilenkin", "--J", "1", "--M", "0", "--N", "0", "--q", "2", "--xi", "nan"],
        ["--fn", "qnum", "--q", "2", "--x", "inf"],
        ["--fn", "Q", "--J", "0.5", "--q", "2", "--eta", "nan"],
        ["--fn", "L", "--tau", "0.2", "--eta=-inf"],
        ["--fn", "R", "--J", "1", "--M", "0", "--N", "0", "--q", "2", "--grid", "0:inf:3"],
        ["--fn", "Q", "--J", "1", "--q", "2", "--grid", "nan:1:2"],
    ])
    def test_non_finite_point_rejected(self, argv, capsys):
        code, out, err = run(["eval"] + argv, capsys)
        assert code == 2 and out == "" and "must give finite points" in err

    def test_q_outside_circle_sector_rejected(self, capsys):
        # (2J+1)|tau| = 4 > pi: the integral construction does not hold there
        code, out, err = run(["eval", "--fn", "Q", "--J", "0.5", "--tau", "2.0",
                              "--eta", "1"], capsys)
        assert code == 2 and out == "" and "tau" in err

    @pytest.mark.parametrize("regime", [["--q", "0.8"], ["--tau", "0.2"]], ids=["q", "tau"])
    @pytest.mark.parametrize("J,label", [("-0.5", "-1/2"), ("-1", "-1")])
    def test_q_negative_j_rejected(self, regime, J, label, capsys):
        code, out, err = run(["eval", "--fn", "Q", f"--J={J}", "--eta", "1"] + regime, capsys)
        assert code == 2 and out == "" and err == f"error: Q needs J >= 0, got {label}\n"

    def test_product_past_the_factor_cap_exits_two(self, capsys):
        # q = 1.0001 needs more than the 1e5-factor cap of the infinite product
        code, out, err = run(["eval", "--fn", "Q", "--J", "0.5", "--q", "1.0001",
                              "--grid", "0.5:1:2"], capsys)
        assert code == 2 and out == "" and err == (
            "error: infinite product needs 161189 factors at q = 1.0001, past the cap of 100000\n")

    def test_product_overflow_exits_two(self, capsys):
        # |eta| q^(-2J) = 2e308 overflows factor 0; the value is about 6e-155, not 0
        code, out, err = run(["eval", "--fn", "Q", "--J", "0.5", "--q", "0.5",
                              "--eta", "1e308"], capsys)
        assert code == 2 and out == "" and "overflows" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "qnum", "--q", "1e200", "--x", "3"],
        ["verify", "--suite", "matrix", "--q", "1e-200"],
        ["eval", "--fn", "Q", "--J", "1.5", "--q", "1e-200", "--eta", "1"],
        ["eval", "--fn", "Q", "--J", "1", "--q", "1e-200", "--eta", "1"],
    ], ids=["qnum", "matrix-suite", "infinite-product", "finite-product"])
    def test_extreme_q_overflow_exits_two(self, argv, capsys):
        # Python's float ** raises OverflowError on each, not a ValueError
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "overflows at q = 1e" in err

    def test_qnum_quotient_overflow_near_one_exits_two(self, capsys):
        # refused by q_number itself, not by the backstop below
        code, out, err = run(["eval", "--fn", "qnum", "--q", "1.00000001", "--x", "7e10"], capsys)
        assert code == 2 and out == "" and err == (
            "error: q-number [7e+10] overflows at q = 1.00000001\n")

    def test_a_non_finite_value_is_refused_at_its_point(self, capsys, monkeypatch):
        # the backstop behind every evaluator's own refusals
        monkeypatch.setitem(cli._EVAL, "qnum", (("x",), lambda p, pts: [1.0, math.inf]))
        code, out, err = run(["eval", "--fn", "qnum", "--q", "2", "--grid", "0:1:2"], capsys)
        assert code == 2 and out == "" and err == "error: --fn qnum leaves the float range at 1\n"

    @pytest.mark.parametrize("argv,msg", [
        (["--fn", "qfact", "--x", "1000", "--q", "1.2"], "[1000]! leaves the float range at q = 1.2"),
        (["--fn", "qfact", "--x", "2000", "--tau", "0.2"],
         "[2000]! leaves the float range at tau = 0.2"),
        (["--fn", "psi", "--J", "200", "--M", "0", "--N", "0", "--q", "1.5", "--rho", "1"],
         "[200]! leaves the float range at q = 1.5"),
        (["--fn", "vilenkin", "--J", "200", "--M", "0", "--N", "0", "--q", "1.5", "--xi", "0.5"],
         "[200]! leaves the float range at q = 1.5"),
        # inside the sector (2J+1)|tau| < pi every [n] is >= 1, so the
        # circle's factorials leave the range by overflow
        (["--fn", "R", "--J", "100", "--M", "100", "--N", "100", "--tau", "0.0005", "--eta", "1"],
         "[200]! leaves the float range at tau = 0.0005"),
        (["--fn", "psi", "--J", "3000", "--M", "0", "--N", "0", "--tau", "0.0005", "--rho", "1"],
         "[3000]! leaves the float range at tau = 0.0005"),
        # R's start 1/[M+N]!, and the norm's [2J+1]! (171! > 1.8e308)
        (["--fn", "R", "--J", "171", "--M", "171", "--N", "0", "--q", "1", "--eta", "0.5"],
         "[171]! leaves the float range at q = 1.0"),
        (["--fn", "vilenkin", "--J", "170", "--M", "0", "--N", "0", "--q", "1", "--xi", "0.5"],
         "[341]! leaves the float range at q = 1.0"),
    ], ids=["qfact-real", "qfact-circle", "psi-real", "vilenkin-real", "R-circle-overflow",
            "psi-circle-overflow", "R-classical-start", "vilenkin-classical-norm"])
    def test_q_factorial_out_of_float_range_exits_two(self, argv, msg, capsys):
        # one error line; a RuntimeWarning on the way fails the test
        code, out, err = run(["eval"] + argv, capsys)
        assert code == 2 and out == "" and msg in err and err.count("\n") == 1

    def test_psi_out_of_float_range_is_one_error_line(self, capsys):
        # the norm of (50, -49, 0) underflows at tau 0.01; psi refuses the row
        # before it multiplies that 0 by an R sum that overflows (inf * 0)
        code, out, err = run(["verify", "--suite", "ladder", "--tau", "0.01",
                              "--J-max", "100"], capsys)
        assert code == 2 and out == ""
        assert err == "error: psi for (J,M,N)=(50,-49,0) leaves the float range at tau = 0.01\n"

    @pytest.mark.parametrize("argv,where", [
        (["--J", "20", "--q", "1"], "20 leaves the float range at eta = 1e+19, q = 1.0"),
        (["--J", "20", "--q", "1.05"], "20 leaves the float range at eta = 1e+19, q = 1.05"),
        (["--J", "20.5", "--tau", "0.05"], "41/2 leaves the float range at eta = 1e+19, tau = 0.05"),
    ], ids=["classical", "real", "circle"])
    def test_q_that_underflows_is_one_error_line(self, argv, where, capsys):
        # Q_20(1e19) is about 1e-380: Q has no zero, so the 0 it underflows
        # to is refused; a RuntimeWarning on the way fails the test
        code, out, err = run(["eval", "--fn", "Q", "--eta", "1e19"] + argv, capsys)
        assert code == 2 and out == "" and err == f"error: Q_J for J = {where}\n"

    def test_r_out_of_float_range_is_one_error_line(self, capsys):
        # R_20(1e19) is about 1e380; no numpy warning comes first
        code, out, err = run(["eval", "--fn", "R", "--J", "20", "--M", "0", "--N", "0",
                              "--q", "1", "--eta", "1e19"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: R for (J,M,N)=(20,0,0) leaves the float range "
                       "at eta = 1e+19, q = 1.0\n")

    @pytest.mark.parametrize("fn,flag", [("psi", "--rho"), ("vilenkin", "--xi")])
    def test_integer_j_outside_the_circle_sector_is_one_error_line(self, fn, flag, capsys):
        # (2J+1)|tau| = 5.4 > pi; psi's radicands are positive here, and
        # it once printed a value
        code, out, err = run(["eval", "--fn", fn, "--J", "1", "--M", "1", "--N", "0",
                              "--tau", "1.8", flag, "0.5"], capsys)
        assert code == 2 and out == ""
        assert err == "error: J=1 on the circle needs (2J+1)|tau| < pi, got tau=1.8\n"

    @pytest.mark.parametrize("argv,msg", [
        (["--fn", "Q", "--J", "1e9", "--q", "1.5", "--eta", "1"],
         "Q_J for J = 1000000000 needs 1000000000 finite factors"),
        (["--fn", "Q", "--J", "1e9", "--tau", "0.5", "--eta", "1"],
         "Q_J for J = 1000000000 needs 1000000000 finite factors"),
        (["--fn", "R", "--J", "1e9", "--M", "0", "--N", "0", "--q", "1", "--eta", "0.5"],
         "R for (J,M,N)=(1000000000,0,0) needs 1000000000 recurrence steps"),
    ], ids=["Q-real", "Q-circle", "R-classical"])
    def test_a_list_sized_by_j_is_refused_before_it_is_built(self, argv, msg):
        # Q's column of finite factors and R's recurrence steps, 1e9 entries
        # each, ended in a MemoryError and exit 1 under this limit
        res = _run_under_a_gib(["eval"] + argv)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"error: {msg}, past the cap of 100000\n"

    @pytest.mark.parametrize("argv,msg", [
        (["--fn", "qnum", "--q", "1.3", "--grid", "0:1:2000000000"],
         "Unable to allocate 14.9 GiB"),
        (["--fn", "psi", "--J", "1", "--M", "0", "--N", "0", "--q", "1.3",
          "--grid", "0.1:1:20000000"], "Unable to allocate "),
    ], ids=["qnum-grid", "psi-grid"])
    def test_running_out_of_memory_exits_two(self, argv, msg):
        # exit 1 means a failed verification, not a traceback; under this
        # limit numpy names the allocation of the 2e9-point grid, and of
        # psi's work on the 2e7-point grid, whose memo key is not built
        res = _run_under_a_gib(["eval"] + argv)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith(f"error: {msg}") and res.stderr.count("\n") == 1

    def test_a_memory_error_without_a_message_says_out_of_memory(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "psi", exhausted)
        code, out, err = run(["eval", "--fn", "psi", "--J", "1", "--M", "0", "--N", "0",
                              "--q", "1.3", "--grid", "0.1:1:3"], capsys)
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_a_list_sized_by_j_at_the_cap_returns_its_value(self, capsys):
        code, out, err = run(["eval", "--fn", "Q", "--J", "1e5", "--q", "1.5", "--eta", "1"],
                             capsys)
        assert code == 0 and err == "" and csv_rows(out) == [["1", "0.49586983565401904", "0"]]
        # (1 + eta)^J P_J((1 - eta)/(1 + eta)) = 0.99002497174124344 (mpmath):
        # 1e5 steps of the recurrence lose about 4.5e-7 of it
        code, out, err = run(["eval", "--fn", "R", "--J", "1e5", "--M", "0", "--N", "0",
                              "--q", "1", "--eta", "1e-12"], capsys)
        assert code == 0 and err == ""
        assert abs(float(csv_rows(out)[0][1]) / 0.99002497174124344 - 1) < 1e-6
        code, out, err = run(["eval", "--fn", "Q", "--J", "100001", "--q", "1.5", "--eta", "1"],
                             capsys)
        assert code == 2 and out == ""
        assert err == "error: Q_J for J = 100001 needs 100001 finite factors, past the cap of 100000\n"

    def test_r_start_past_the_cap_is_refused_before_its_product(self, capsys):
        # M + N = -2e7: the start is a product of 2e7 q-numbers, each at
        # least 1, which took seconds before it left the float range
        code, out, err = run(["eval", "--fn", "R", "--J", "1e7", "--M=-1e7", "--N=-1e7",
                              "--q", "1", "--eta", "0.5"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: R for (J,M,N)=(10000000,-10000000,-10000000) needs 20000000 "
                       "start factors, past the cap of 100000\n")
        # at the cap the product runs, and leaves the float range
        code, out, err = run(["eval", "--fn", "R", "--J", "5e4", "--M=-5e4", "--N=-5e4",
                              "--q", "1", "--eta", "0.5"], capsys)
        assert code == 2 and out == ""
        assert err == "error: R for (J,M,N)=(50000,-50000,-50000) leaves the float range at q = 1.0\n"

    def test_l_on_the_negative_real_axis_is_one_error_line(self, capsys):
        # a RuntimeWarning on the way fails the test
        code, out, err = run(["eval", "--fn", "L", "--tau", "0.2", "--eta", "-1"], capsys)
        assert code == 2 and out == ""
        assert err == "error: l_function needs eta off the negative real axis at eta = -1.0, tau = 0.2\n"

    def test_unknown_fn_rejected_by_argparse(self, capsys):
        code, _, _ = run(["eval", "--fn", "nope", "--q", "2"], capsys)
        assert code == 2


class TestVerify:
    def test_matrix_example_passes_tight(self, capsys):
        code, out, _ = run(["verify", "--suite", "matrix", "--J-max", "4.5",
                            "--q", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert max(c["residual"] for c in doc["cases"]) < 1e-13

    def test_funceq_circle_example(self, capsys):
        code, out, _ = run(["verify", "--suite", "funceq", "--J", "0.5",
                            "--tau", "0.6283185307"], capsys)
        assert code == 0
        doc = json.loads(out)
        (case,) = doc["cases"]
        assert case["pass"] and case["residual"] < 1e-8

    def test_gram_example(self, capsys):
        code, out, _ = run(["verify", "--suite", "gram", "--N", "0",
                            "--J-max", "2", "--q", "1.2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["cases"][0]["residual"] < 1e-6

    def test_report_schema_fields(self, capsys):
        _, out, _ = run(["verify", "--suite", "matrix", "--J-max", "1",
                         "--q", "1.2"], capsys)
        doc = json.loads(out)
        assert set(doc) == {"schema", "suite", "q_descriptor", "cases",
                            "pass", "runtime_ms"}
        assert doc["schema"] == 1 and doc["suite"] == "matrix"
        for case in doc["cases"]:
            assert set(case) == {"name", "residual", "tol", "pass"}
            assert math.isfinite(case["residual"])
        assert isinstance(doc["runtime_ms"], int)
        assert doc["pass"] is all(c["pass"] for c in doc["cases"])

    def test_failing_tolerance_exits_one(self, capsys):
        code, out, _ = run(["verify", "--suite", "matrix", "--J-max", "1",
                            "--q", "2", "--tol", "1e-30"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False

    def test_unknown_suite_exits_two(self, capsys):
        code, _, _ = run(["verify", "--suite", "nope", "--q", "2"], capsys)
        assert code == 2

    def test_determinism_modulo_runtime(self, capsys):
        argv = ["verify", "--suite", "ladder", "--q", "1.2", "--seed", "7"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1["runtime_ms"] = d2["runtime_ms"] = 0
        assert d1 == d2

    def test_seed_changes_hermiticity_samples_but_passes(self, capsys):
        outs = []
        for seed in ("0", "3"):
            code, out, _ = run(["verify", "--suite", "hermiticity", "--q", "1.2",
                                "--seed", seed], capsys)
            assert code == 0
            outs.append(json.loads(out))
        r0 = [c["residual"] for c in outs[0]["cases"]]
        r1 = [c["residual"] for c in outs[1]["cases"]]
        assert r0 != r1

    # random.Random would take a negative seed for its absolute value
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "all", "--q", "1.2", "--seed", "-1"],
        ["verify", "--suite", "hermiticity", "--tau", "0.2", "--seed", "-3"],
    ], ids=["all", "hermiticity"])
    def test_negative_seed_exits_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: --seed must be a non-negative integer, got {argv[-1]}"]

    # l_function's Gauss-Legendre rule, before the Gauss-Kronrod one, raised
    # "did not converge" on each of these
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "all", "--tau", "0.01"],
        ["verify", "--suite", "all", "--tau", "-0.01"],
        ["verify", "--suite", "funceq", "--tau", "0.005"],
        ["eval", "--fn", "Q", "--J", "2.5", "--tau", "0.52", "--eta", "3"],
    ])
    def test_small_tau_and_sector_edge_pass(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 0 and out and err == ""

    # L sized its panels by the largest |eta| of a call: on the radial nodes
    # times q^-1 and q^-2 it raised "did not converge" on each of these
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "all", "--tau", "0.01", "--N", "0.5"],
        ["verify", "--suite", "all", "--tau", "0.015", "--N", "0.5"],
        ["verify", "--suite", "hermiticity", "--tau", "0.01", "--N", "0.5"],
    ], ids=["all-tau0.01", "all-tau0.015", "hermiticity-tau0.01"])
    def test_small_tau_at_n_half_passes(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["pass"] and doc["cases"] and all(c["pass"] for c in doc["cases"])

    def test_tiny_tau_exits_two(self, capsys):
        code, out, err = run(["verify", "--suite", "all", "--tau", "0.0001"], capsys)
        assert code == 2 and out == "" and "did not converge" in err

    # a flag the chosen suite does not read is an error, not silently dropped
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "limit", "--q", "1.2", "--tol", "0.5"],
        ["verify", "--suite", "matrix", "--q", "2", "--seed", "5"],
        ["verify", "--suite", "matrix", "--q", "2", "--N", "0.5"],
        ["verify", "--suite", "all", "--q", "1.2", "--tol", "1e-3"],
        ["verify", "--suite", "all", "--q", "1.2", "--J", "1"],
        ["verify", "--suite", "all", "--q", "1", "--seed", "2"],
        ["verify", "--suite", "funceq", "--q", "0.8", "--J-max", "2"],
    ], ids=["limit-tol", "matrix-seed", "matrix-N", "all-tol", "all-J",
            "all-classical-seed", "funceq-J-max"])
    def test_unread_suite_flag_exits_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        flag = next(a for a in argv[5:] if a.startswith("--"))
        assert code == 2 and out == ""
        assert f"--suite {argv[2]} does not read {flag}" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "all", "--q", "1.2", "--N", "0", "--seed", "1",
         "--J-max", "1"],
        ["verify", "--suite", "gram", "--q", "1.2", "--N", "0", "--J", "1", "--tol", "1e-6"],
        ["verify", "--suite", "limit", "--q", "1.2"],
    ], ids=["all", "gram", "limit"])
    def test_read_suite_flags_accepted(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["pass"] is True

    def test_limit_suite_classical_ok(self, capsys):
        code, out, _ = run(["verify", "--suite", "limit", "--q", "1"], capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True

    # a single suite runs only where `all` runs it: limit has no circle
    # cases, and the deformed suites check nothing at q = 1 (funceq's
    # residual there is 0 by construction)
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "limit", "--tau", "0.2"],
        ["verify", "--suite", "funceq", "--q", "1"],
        ["verify", "--suite", "ladder", "--q", "1"],
        ["verify", "--suite", "casimir", "--q", "1"],
        ["verify", "--suite", "hermiticity", "--q", "1"],
    ], ids=["limit-circle", "funceq-classical", "ladder-classical", "casimir-classical",
            "hermiticity-classical"])
    def test_suite_outside_its_regimes_exits_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        regime = "UnitCircle" if argv[3] == "--tau" else "Classical"
        assert code == 2 and out == ""
        assert f"suite {argv[2]} does not apply in the {regime} regime" in err


class TestGram:
    def test_classical_identity_4x4(self, capsys):
        code, out, _ = run(["gram", "--N", "0", "--J-max", "1", "--q", "1",
                            "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == ["0:0", "1:1", "1:0", "1:-1"]
        assert doc["kind"] == "Classical"
        assert doc["max_offdiag"] < 1e-8 and doc["max_diag_dev"] < 1e-8
        assert len(doc["matrix"]) == 4 and len(doc["matrix"][0]) == 4

    def test_single_j_circle_one_by_one(self, capsys):
        code, out, _ = run(["gram", "--N", "0.5", "--J", "0.5",
                            "--tau", str(TAU_23), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == ["1/2:1/2", "1/2:-1/2"]
        assert doc["max_diag_dev"] < 1e-6 and doc["max_offdiag"] < 1e-6

    def test_empty_tower_exit_zero(self, capsys):
        code, out, _ = run(["gram", "--N", "1", "--J-max", "0.5", "--q", "1.2",
                            "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == [] and doc["matrix"] == []
        assert doc["max_offdiag"] == 0.0

    def test_csv_layout(self, capsys):
        code, out, _ = run(["gram", "--N", "0", "--J-max", "1", "--q", "1.2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# gram,N=0,J=0|1,kind=DeformedReal")
        assert lines[1].startswith("# max_offdiag=")
        assert lines[2] == "i,j,bra,ket,re,im"
        assert len(lines) == 3 + 16

    @pytest.mark.parametrize("argv", [
        ["--q", "0.5", "--N", "0", "--J-max", "4"],
        ["--q", "0.3", "--N", "1", "--J-max", "3"],
        ["--q", "2", "--N", "0", "--J-max", "4"],
    ], ids=["q0.5-N0-J4", "q0.3-N1-J3", "q2-N0-J4"])
    def test_far_towers_are_orthonormal(self, argv, capsys):
        # each off-diagonal entry is 0 by a cancellation over integrands far
        # larger than 1, which the radial rule must resolve to 1e-10
        code, out, err = run(["gram"] + argv + ["--format", "json"], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["max_offdiag"] < 1e-9 and doc["max_diag_dev"] < 1e-9

    @pytest.mark.parametrize("argv,tol", [
        (["--q", "1", "--N", "0", "--J-max", "17"], 1e-9),
        (["--q", "1", "--N", "0", "--J-max", "20"], 1e-9),
        (["--tau", "0.05", "--N", "0", "--J-max", "17"], 1e-9),
        (["--q", "1.05", "--N", "0", "--J-max", "17"], 1e-9),
    ], ids=["q1-J17", "q1-J20", "tau0.05-J17", "q1.05-J17"])
    def test_high_towers_reach_the_far_nodes(self, argv, tol, capsys):
        # from J = 17 on, eta^J overflows and Q_J underflows at the rule's
        # far nodes, |ln eta| up to 44, where psi builds each row by the
        # recurrence in J; any RuntimeWarning is an error here.  At q 1.05
        # the tower reads 1.3e-10 (1.4e-8 when R was an alternating sum)
        code, out, err = run(["gram"] + argv + ["--format", "json"], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["max_offdiag"] < tol and doc["max_diag_dev"] < tol

    @pytest.mark.parametrize("argv", [
        ["--tau", "0.03", "--N", "0", "--J", "35"],
        ["--tau", "0.03", "--N", "0", "--J", "40"],
        ["--q", "1", "--N", "32.5", "--J", "32.5"],
    ], ids=["tau0.03-J35", "tau0.03-J40", "q1-N32.5-J32.5"])
    def test_towers_whose_plain_start_leaves_the_range_are_orthonormal(self, argv, capsys):
        # psi's plain start overflows or underflows at the radial rule's
        # nodes here, and the tower exited 2; the scaled start keeps them
        code, out, err = run(["gram"] + argv + ["--format", "json"], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["max_offdiag"] < suites.GRAM_TOL and doc["max_diag_dev"] < suites.GRAM_TOL

    @pytest.mark.parametrize("argv,msg", [
        (["--q", "1", "--N", "0", "--J", "50"],
         "psi for (J,M,N)=(50,-47,0) leaves the float range at q = 1.0"),
        (["--q", "0.7", "--N", "0", "--J", "25"],
         "psi for (J,M,N)=(25,-11,0) leaves the float range at q = 1.4285714285714286"),
    ], ids=["q1-J50", "q0.7-J25"])
    def test_towers_whose_lead_leaves_the_range_are_one_error_line(self, argv, msg, capsys):
        # the lead of psi, its norm's radicand [J-M]![2J]! past the float
        # range, is still refused (the bra side runs at 1/q)
        code, out, err = run(["gram"] + argv, capsys)
        assert code == 2 and out == "" and err == f"error: {msg}\n"

    @pytest.mark.parametrize("argv,msg", [
        (["--q", "1.05", "--N", "0", "--J-max", "20"],
         "radial integral did not converge within max_refinements"),
        # J 15 is inside Q_15's sector, not inside the scalar product's bound
        (["--tau", "0.1", "--N", "0", "--J-max", "17"],
         "the scalar product on the circle needs (2J+2)|tau| < pi, got J=15, tau=0.1"),
    ], ids=["q1.05-J20", "tau0.1-J17"])
    def test_high_towers_past_their_reach_are_one_error_line(self, argv, msg, capsys):
        code, out, err = run(["gram"] + argv, capsys)
        assert code == 2 and out == "" and err == f"error: {msg}\n"

    @pytest.mark.parametrize("sign", [1, -1], ids=["tau+", "tau-"])
    @pytest.mark.parametrize("J,N", [(0.5, 0.5), (1, 0), (1, 1), (1.5, 0.5), (2, 0), (2, 1),
                                     (2.5, 0.5), (3, 0), (3, 1)])
    def test_the_circle_form_bound_is_refused_at_the_entry(self, J, N, sign, capsys):
        # between (2J+2)|tau| = pi and Q_J's sector edge (2J+1)|tau| = pi,
        # gram printed matrices off by 1.0-1.9 with exit 0; J 1/2 is tested
        # at tau 0.75, as its radial rule gives up from about 0.8 below pi/3
        bound = math.pi / (2 * J + 2)
        tau = sign * (0.75 if J == 0.5 else 0.9 * bound)
        code, out, err = run(["gram", "--J", str(J), "--N", str(N), "--tau", repr(tau),
                              "--format", "json"], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["max_offdiag"] < suites.GRAM_TOL and doc["max_diag_dev"] < suites.GRAM_TOL
        tau = sign * 1.02 * bound
        msg = (f"error: the scalar product on the circle needs (2J+2)|tau| < pi, "
               f"got J={HalfInt.of(J)}, tau={tau!r}\n")
        for cmd in (["gram", "--J", str(J)], ["verify", "--suite", "gram", "--J-max", str(J)]):
            assert run(cmd + ["--N", str(N), "--tau", repr(tau)], capsys) == (2, "", msg)

    def test_the_adjoint_basis_pair_is_held_to_the_form_bound(self, capsys):
        # the pair's J = |N| + 1 = 2 lies above --J-max, and its residual
        # read 7.0e-2 with exit 1
        code, out, err = run(["verify", "--suite", "hermiticity", "--N", "1", "--J-max", "1",
                              "--tau", "0.6"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: the scalar product on the circle needs (2J+2)|tau| < pi, "
                       "got J=2, tau=0.6\n")

    @pytest.mark.parametrize("cmd", [["gram"], ["verify", "--suite", "gram"]], ids=["gram", "verify"])
    def test_a_tower_past_psi_reach_is_refused_unbuilt(self, cmd, monkeypatch, capsys):
        # the bra side runs at 1/q: psi's own refusal named [200]! at q = 0.5,
        # after the tower of 401 weights was built
        def unbuilt(*args):
            raise AssertionError("the scalar products ran")

        monkeypatch.setattr(qinner, "_products", unbuilt)
        code, out, err = run(cmd + ["--N", "0", "--J", "200", "--q", "2"], capsys)
        assert code == 2 and out == ""
        assert err == "error: q-factorial [401]! leaves the float range at q = 2.0\n"

    def test_small_tau_at_n_half_is_orthonormal(self, capsys):
        # L raised "did not converge" on the radial nodes at tau 0.01
        code, out, err = run(["gram", "--tau", "0.01", "--N", "0.5", "--J-max", "1.5",
                              "--format", "json"], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["max_offdiag"] < 1e-6 and doc["max_diag_dev"] < 1e-6

    @pytest.mark.parametrize("cmd", [["gram"], ["verify", "--suite", "gram"]], ids=["gram", "verify"])
    def test_a_tall_tower_is_refused_before_its_labels_are_built(self, cmd):
        # the 1e9 labels of --J-max 1e9 were built before gram checked the
        # first J: under this 1 GiB address-space limit the child ended in a
        # MemoryError and exit 1 after about 8 s
        res = _run_under_a_gib(cmd + ["--q", "2", "--J-max", "1e9"])
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: q-factorial [47]! leaves the float range at q = 2.0\n"

    @pytest.mark.parametrize("suite,param,error", [
        ("ladder", ["--q", "2"], "psi for (J,M,N)=(33/2,-31/2,1/2) leaves the float range at q = 2.0"),
        ("ladder", ["--tau", "0.3"], "J=5 on the circle needs (2J+1)|tau| < pi, got tau=0.3"),
        ("casimir", ["--q", "0.5"],
         "psi for (J,M,N)=(33/2,-31/2,1/2) leaves the float range at q = 0.5"),
        ("casimir", ["--tau", "0.3"], "J=5 on the circle needs (2J+1)|tau| < pi, got tau=0.3"),
        ("hermiticity", ["--q", "2"], "q-factorial [47]! leaves the float range at q = 2.0"),
        ("hermiticity", ["--q", "0.5"], "q-factorial [47]! leaves the float range at q = 0.5"),
        ("hermiticity", ["--tau", "0.3"], "J=5 on the circle needs (2J+1)|tau| < pi, got tau=0.3"),
    ], ids=["ladder-q2", "ladder-tau0.3", "casimir-q0.5", "casimir-tau0.3", "hermiticity-q2",
            "hermiticity-q0.5", "hermiticity-tau0.3"])
    def test_a_tall_stencil_or_span_tower_is_made_one_label_at_a_time(self, suite, param, error):
        # the labels J up to 1e9, and hermiticity's 1e18 span states, were
        # built first: the child ended in a MemoryError and exit 1 after 4-5 s.
        # ladder and casimir now stop at the first J that psi refuses, and
        # hermiticity refuses its span tower at the first J past psi's reach,
        # as gram does; it passed with exact-zero residuals before, its drawn
        # states sharing no mode and none of them evaluated
        res = _run_under_a_gib(["verify", "--suite", suite, *param, "--J-max", "1e9"])
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"error: {error}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writers_print_each_entry_as_its_numpy_scalar(self, fmt, monkeypatch, capsys):
        # the writers read the matrix once; each entry must print as the numpy
        # scalar rep.matrix[i, j] does, the sign of a zero included
        rng = np.random.default_rng(5)
        parts = rng.standard_normal((2, 6, 6)) * 10.0 ** rng.integers(-300, 300, (2, 6, 6))
        zeros = rng.integers(0, 3, (2, 6, 6))  # a third 0.0, a third -0.0
        parts[zeros == 1], parts[zeros == 2] = 0.0, -0.0
        mat = np.empty((6, 6), dtype=complex)
        mat.real, mat.imag = parts  # parts[0] + 1j * parts[1] would turn -0.0 into 0.0
        labels = tuple((HalfInt(tj), HalfInt(tm)) for tj in (1, 3) for tm in range(tj, -tj - 1, -2))
        rep = qinner.GramReport(labels=labels, matrix=mat, max_offdiag=0.25, max_diag_dev=-0.0)
        monkeypatch.setattr(cli, "gram_matrix", lambda N, j_list, p: rep)
        code, out, _ = run(["gram", "--q", "1.2", "--N", "0.5", "--J-max", "1.5",
                            "--format", fmt], capsys)
        assert code == 0
        names = [f"{J}:{M}" for J, M in labels]
        if fmt == "csv":
            head = out.splitlines()[:3]
            rows = [f"{i},{j},{names[i]},{names[j]},{mat[i, j].real:.17g},{mat[i, j].imag:.17g}"
                    for i in range(6) for j in range(6)]
            assert out == "\n".join(head + rows) + "\n"
        else:
            doc = json.loads(out)
            doc["matrix"] = [[[mat[i, j].real, mat[i, j].imag] for j in range(6)]
                             for i in range(6)]
            assert out == json.dumps(doc, indent=2) + "\n"

    def test_parity_violation_exits_two(self, capsys):
        code, _, err = run(["gram", "--J", "0.5", "--N", "0", "--q", "1.2"], capsys)
        assert code == 2 and "half-integers together" in err

    @pytest.mark.parametrize("cmd", [["gram"], ["verify", "--suite", "gram"]], ids=["gram", "verify"])
    @pytest.mark.parametrize("J,N,msg", [
        ("0", "0.5", "(J,N) = (0,1/2) must be integers or half-integers together"),
        ("1", "2", "need |N| <= J, got (J,N) = (1,2)"),
    ], ids=["parity", "N-above-J"])
    def test_tower_errors_name_only_j_and_n(self, cmd, J, N, msg, capsys):
        # the first weight M = J of the tower is no label the user gave
        code, out, err = run(cmd + ["--q", "1.2", "--N", N, "--J", J], capsys)
        assert code == 2 and out == "" and err == f"error: {msg}\n"

    @pytest.mark.parametrize("param,kind", [
        (["--q", "1"], "Classical"),
        (["--q", "1.2"], "DeformedReal"),
        (["--tau", "0.2"], "DeformedCircle"),
    ], ids=["classical", "real", "circle"])
    def test_kind_names_the_form_of_the_regime(self, param, kind, capsys):
        argv = ["gram", "--N", "0", "--J", "0"] + param
        _, out, _ = run(argv + ["--format", "json"], capsys)
        assert json.loads(out)["kind"] == kind
        _, out, _ = run(argv, capsys)
        assert out.splitlines()[0] == f"# gram,N=0,J=0,kind={kind}"


class TestJsonDocuments:
    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "qnum", "--x", "1", "--q", "2", "--format", "json"],
        ["gram", "--N", "0", "--J", "0", "--q", "1.2", "--format", "json"],
        ["verify", "--suite", "matrix", "--J-max", "0.5", "--q", "1.2"],
    ], ids=["eval", "gram", "verify"])
    def test_schema_is_the_one_version(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["schema"] == cli.SCHEMA_VERSION


class TestParser:
    def test_missing_subcommand_exits_two(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 2

    def test_prog_name(self):
        assert cli.build_parser().prog == "suq2"

    # each subcommand takes only the flags it reads
    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "qnum", "--q", "2", "--x", "1", "--seed", "1"],
        ["eval", "--fn", "qnum", "--q", "2", "--x", "1", "--radial-nodes", "24"],
        ["eval", "--fn", "qnum", "--q", "2", "--x", "1", "--angular-nodes", "8"],
        ["verify", "--suite", "matrix", "--J-max", "1", "--q", "2", "--M", "1"],
        ["verify", "--suite", "matrix", "--J-max", "1", "--q", "2", "--format", "csv"],
        ["gram", "--N", "0", "--J-max", "1", "--q", "1", "--M", "0"],
        ["gram", "--N", "0", "--J-max", "1", "--q", "1", "--seed", "3"],
        ["verify", "--suite", "gram", "--J-max", "1", "--q", "1.2", "--angular-nodes", "8"],
        ["gram", "--N", "0", "--J-max", "1", "--q", "1.2", "--angular-nodes", "8"],
        ["verify", "--suite", "ladder", "--tau", "0.2", "--radial-nodes", "24"],
        ["gram", "--N", "0", "--J-max", "1", "--q", "1.2", "--radial-nodes", "24"],
    ], ids=["eval-seed", "eval-radial-nodes", "eval-angular-nodes", "verify-M",
            "verify-format", "gram-M", "gram-seed", "verify-angular-nodes",
            "gram-angular-nodes", "verify-radial-nodes", "gram-radial-nodes"])
    def test_unread_flag_exits_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "unrecognized arguments" in err

    # a flag the command parses but would ignore in this combination is an
    # error too: --J replaces the --J-max tower, --grid the point flag, and
    # each function reads only its own parameters
    @pytest.mark.parametrize("argv,message", [
        (["gram", "--q", "1.2", "--J", "1", "--J-max", "3"],
         "gram with --J does not read --J-max"),
        (["verify", "--suite", "gram", "--q", "1.2", "--J", "1", "--J-max", "3"],
         "--suite gram with --J does not read --J-max"),
        (["eval", "--fn", "L", "--tau", "0.2", "--eta", "1", "--J", "3", "--N", "7"],
         "--fn L does not read --J, --N"),
        (["eval", "--fn", "Q", "--J", "0.5", "--q", "1.2", "--eta", "1", "--grid", "1:2:2",
          "--M", "4", "--x", "9"],
         "--fn Q does not read --x, --M"),
        (["eval", "--fn", "Q", "--J", "0.5", "--q", "1.2", "--eta", "1", "--grid", "1:2:2"],
         "--fn Q with --grid does not read --eta"),
        (["eval", "--fn", "vilenkin", "--J", "1", "--M", "0", "--N", "0", "--q", "2",
          "--xi", "0.5", "--eta", "1"],
         "--fn vilenkin does not read --eta"),
        (["eval", "--fn", "qnum", "--q", "2", "--x", "1", "--J", "1"],
         "--fn qnum does not read --J"),
    ], ids=["gram-J-and-J-max", "verify-gram-J-and-J-max", "eval-L-J-N", "eval-Q-M-x",
            "eval-Q-grid-eta", "eval-vilenkin-eta", "eval-qnum-J"])
    def test_ignored_flag_exits_two(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "Q", "--J", "inf", "--q", "1.2", "--eta", "1"],
        ["verify", "--suite", "ladder", "--q", "1.2", "--J-max", "inf"],
        ["gram", "--q", "1.2", "--N", "inf"],
    ], ids=["eval-J", "verify-J-max", "gram-N"])
    def test_infinite_half_integer_exits_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "integer or half-integer, got 'inf'" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "ladder", "--q", "1.5", "--J-max", "-1"],
        ["verify", "--suite", "matrix", "--q", "1.5", "--J-max", "0"],
        ["verify", "--suite", "casimir", "--tau", "0.2", "--J-max", "0"],
        ["verify", "--suite", "ladder", "--q", "1.5", "--J-max", "-0.5"],
    ], ids=["ladder-J-max-minus-1", "matrix-J-max-0", "casimir-J-max-0", "ladder-J-max-minus-half"])
    def test_suite_with_no_case_exits_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "has no case to run at --J-max" in err

    @pytest.mark.parametrize("argv,states", [
        (["verify", "--suite", "hermiticity", "--q", "1.5", "--J-max", "0", "--N", "0"], 1),
        (["verify", "--suite", "hermiticity", "--q", "1.5", "--J-max", "0.5", "--N", "0.5"], 2),
        (["verify", "--suite", "hermiticity", "--tau", "0.2", "--J-max", "0", "--N", "1"], 0),
    ], ids=["N0-J-max-0", "N-half-J-max-half", "N1-J-max-0"])
    def test_hermiticity_on_too_small_a_tower_exits_two(self, argv, states, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert "--J-max" in err and "N=" in err and f"has {states}" in err
        assert "larger sample" not in err

    @pytest.mark.parametrize("suite,msg", [
        ("gram", "gram needs at least 1 basis state"),
        # `all` runs hermiticity at the same --J-max before gram
        ("all", "hermiticity span pairs need at least 3 basis states"),
    ], ids=["gram", "all"])
    def test_gram_on_an_empty_tower_exits_two(self, suite, msg, capsys):
        # a case on no state would compare nothing, and could not fail
        code, out, err = run(["verify", "--suite", suite, "--q", "1.3", "--N", "2",
                              "--J-max", "1"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {msg}; the N=2 tower up to --J-max 1 has 0\n"

    @pytest.mark.parametrize("argv,counts", [
        # ladder and casimir ran their 9 towers up to J 3 whatever --J-max said
        (["--q", "1.2", "--J-max", "1"],
         {"matrix": 2, "funceq": 5, "ladder": 3, "casimir": 3, "adjoint": 4, "conjugate": 3,
          "gram": 1, "inner": 6, "vilenkin": 13}),
        # exited 2 on "J=3 on the circle needs (2J+1)|tau| < pi"
        (["--tau", "0.5", "--J-max", "2"],
         {"matrix": 4, "funceq": 5, "ladder": 6, "casimir": 6, "adjoint": 4, "conjugate": 3,
          "gram": 1}),
    ], ids=["q1.2-J-max-1", "tau0.5-J-max-2"])
    def test_all_runs_every_tower_to_the_given_j_max(self, argv, counts, capsys):
        code, out, err = run(["verify", "--suite", "all"] + argv, capsys)
        assert code == 0 and err == ""
        cases = json.loads(out)["cases"]
        assert all(c["pass"] for c in cases)
        names = [c["name"].split()[0] for c in cases]
        assert {name: names.count(name) for name in names} == counts

    def test_all_without_a_matrix_case_exits_two(self, capsys):
        # as `--suite matrix --J-max 0` does; it ran the other suites, exit 0
        code, out, err = run(["verify", "--suite", "all", "--q", "1", "--J-max", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "error: suite matrix has no case to run at --J-max 0\n"

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_must_be_positive_and_finite(self, tol, capsys):
        # -1, 0 and nan would fail every case with exit 1, and inf would
        # pass every finite residual; each is refused before any suite runs
        code, out, err = run(["verify", "--suite", "ladder", "--q", "1.3", "--tol", tol], capsys)
        assert code == 2 and out == ""
        assert err == f"error: --tol must be a positive finite number, got {float(tol)}\n"


def test_cli_imports_neither_numpy_random_nor_numpy_polynomial():
    # importing the two took about a fifth of a verify call; a fresh
    # interpreter sees what the CLI itself loads
    argvs = [["verify", "--suite", "all", "--q", "1.2", "--N", "0.5"],
             ["verify", "--suite", "all", "--tau", "0.2"],
             ["gram", "--N", "0.5", "--J-max", "1.5", "--tau", "0.2"]]
    script = (
        "import contextlib, io, json, sys\n"
        "from suq2 import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith(('numpy.random', 'numpy.polynomial')))))\n")
    res = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=_child_env(),
                         capture_output=True, text=True, check=True)
    assert json.loads(res.stdout) == []


def _run_under_a_gib(argv):
    """The CLI on argv in a child interpreter whose address space is capped at
    1 GiB, so that a list of a billion entries ends in a MemoryError."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
              "from suq2 import cli\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", script, *argv],
                          env=_child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
                          text=True, timeout=60)


def _child_env(**extra):
    """The environment of a child interpreter that imports this checkout's suq2."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
