"""Golden CLI outputs: every byte except runtime_ms must match the recording.

The files under tests/golden/ were written by the CLI before l_function
memoized its results and before the Gauss-Legendre rules were cached, so
this test proves those caches change no printed number.  Regenerate a file
only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py
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
        (GOLDEN_DIR / name).write_text(render(argv))
