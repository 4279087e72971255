"""Command-line contract: exit codes, table formats, report schema, and
byte determinism."""
import json
import math

import pytest

from suq2 import cli

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

    def test_qfact_non_integer_point(self, capsys):
        code, _, err = run(["eval", "--fn", "qfact", "--x", "1.5", "--q", "2"], capsys)
        assert code == 2 and "integer" in err

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

    def test_product_not_converging_exits_two(self, capsys):
        # q = 1.0001 needs more than the 1e5-factor cap of the infinite product
        code, out, err = run(["eval", "--fn", "Q", "--J", "0.5", "--q", "1.0001",
                              "--grid", "0.5:1:2"], capsys)
        assert code == 2 and out == "" and "did not converge" in err

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

    @pytest.mark.parametrize("argv,msg", [
        (["--fn", "qfact", "--x", "1000", "--q", "1.2"], "[1000]! leaves the float range at q = 1.2"),
        (["--fn", "qfact", "--x", "2000", "--tau", "0.2"],
         "[2000]! leaves the float range at tau = 0.2"),
        (["--fn", "psi", "--J", "200", "--M", "0", "--N", "0", "--q", "1.5", "--rho", "1"],
         "[200]! leaves the float range at q = 1.5"),
        (["--fn", "vilenkin", "--J", "200", "--M", "0", "--N", "0", "--q", "1.5", "--xi", "0.5"],
         "[200]! leaves the float range at q = 1.5"),
        (["--fn", "R", "--J", "3000", "--M", "0", "--N", "0", "--tau", "1.5", "--eta", "1"],
         "[3000]! leaves the float range at tau = 1.5"),
        (["--fn", "psi", "--J", "3000", "--M", "0", "--N", "0", "--tau", "1.5", "--rho", "1"],
         "[3000]! leaves the float range at tau = 1.5"),
        # each factorial is finite (170! < 1.8e308), the lead [J-N]![J-M]! of R is not
        (["--fn", "R", "--J", "170", "--M", "0", "--N", "0", "--q", "1", "--eta", "0.5"],
         "R coefficients for (J,M,N)=(170,0,0) leave the float range at q = 1.0"),
        (["--fn", "vilenkin", "--J", "170", "--M", "0", "--N", "0", "--q", "1", "--xi", "0.5"],
         "R coefficients for (J,M,N)=(170,0,0) leave the float range at q = 1.0"),
    ], ids=["qfact-real", "qfact-circle", "psi-real", "vilenkin-real", "R-circle-underflow",
            "psi-circle-underflow", "R-classical-product", "vilenkin-classical-product"])
    def test_q_factorial_out_of_float_range_exits_two(self, argv, msg, capsys):
        # one error line; a RuntimeWarning on the way fails the test
        code, out, err = run(["eval"] + argv, capsys)
        assert code == 2 and out == "" and msg in err and err.count("\n") == 1

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

    def test_parity_violation_exits_two(self, capsys):
        code, _, err = run(["gram", "--J", "0.5", "--N", "0", "--q", "1.2"], capsys)
        assert code == 2 and "half-integers together" in err

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
