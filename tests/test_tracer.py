"""The benchmark's tracer (perfbench/tracer.py) leaves the CLI's output as it
is: a traced `verify --suite all` prints what an untraced one prints, every
byte but runtime_ms.  The tracer rebuilds each family that a public qops
builder returns as PlaneFamily(evaluator, meta), so whatever a family
carried beyond those two fields would be lost in a traced run, and the
stencils read their operand's modes from meta alone.  Each run is a child
interpreter, as the benchmark's workers are, so that the wrapped functions
stay out of this process."""
import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

CHILD = """\
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import suq2.cli
if sys.argv[3] == "1":
    import tracer
    tracer.install(suq2)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = suq2.cli.main(json.loads(sys.argv[4]))
traced = hasattr(suq2.suites.psi_tower, "__wrapped__")
print(json.dumps([code, out.getvalue(), traced]))
"""

_RUNTIME = re.compile(r'"runtime_ms": \d+')


def _run(argv, trace: str):
    res = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench"),
                          trace, json.dumps(argv)],
                         capture_output=True, text=True, check=True, timeout=300)
    code, out, traced = json.loads(res.stdout)
    return code, _RUNTIME.sub('"runtime_ms": 0', out), traced


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--tau", "0.2"],
    ["verify", "--suite", "all", "--q", "0.7", "--N", "0.5"],
], ids=["tau0.2", "q0.7-N0.5"])
def test_traced_output_equals_untraced_output(argv):
    plain, traced = _run(argv, "0"), _run(argv, "1")
    assert (plain[2], traced[2]) == (False, True)  # the tracer did wrap the suites' calls
    assert plain[0] == traced[0] == 0
    assert traced[1] == plain[1] and '"cases"' in plain[1]
