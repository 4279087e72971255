"""The benchmark's tracer (perfbench/tracer.py) leaves the CLI's output as it
is: a traced `verify --suite all` prints what an untraced one prints, every
byte but runtime_ms.  The tracer rebuilds each family that a public qops
builder returns as PlaneFamily(evaluator, meta), so whatever a family
carried beyond those two fields would be lost in a traced run, and the
stencils read their operand's modes from meta alone; it times a family's
evaluation by wrapping its evaluator, so a family must be evaluated through
it.  Each run is a child interpreter, as the benchmark's workers are, so
that the wrapped functions stay out of this process."""
import inspect
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

FAMILIES_CHILD = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
import suq2.cli
from suq2 import qops
from suq2.qcore import QParam
rec = None
if sys.argv[3] == "1":
    import tracer
    rec = tracer.install(suq2)
N = 0.5
member = qops.psi_family(1.5, 0.5, N)
span = qops.combine([0.3 - 1.1j, 2.0], [member, qops.psi_family(2.5, -0.5, N)])
families = {
    "psi_family": member,
    "combine": span,
    "with_fixed_param": qops.with_fixed_param(span),
    "apply_h_plus": qops.apply_h_plus(span, N),
    "apply_h_minus": qops.apply_h_minus(span, N),
    "apply_q_h3_power": qops.apply_q_h3_power(span, N, 2.0),
    "apply_casimir": qops.apply_casimir(span, N),
}
u = np.array([0.7 + 0.4j, -1.2 + 0.9j, 0.3 - 1.6j])
values = {name: [fam(p, u, np.conj(u)).tobytes().hex()
                 for p in (QParam.positive_real(1.3), QParam.unit_circle(0.2))]
          for name, fam in families.items()}
spans = sorted({rec.names[k] for k in rec.span_name}) if rec else []
print(json.dumps([values, spans]))
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


def test_traced_builders_evaluate_through_their_evaluator():
    # every public qops builder's family evaluates to the same bytes traced
    # and untraced, and its traced evaluation is timed as <builder>.eval:
    # the tracer rebuilds the family from its two fields and wraps its
    # evaluator, so a family evaluated past its evaluator would go untimed
    from suq2 import qops
    builders = {name for name, fn in vars(qops).items()
                if not name.startswith("_") and inspect.isfunction(fn)
                and fn.__annotations__.get("return") == "PlaneFamily"}
    runs = []
    for trace in ("0", "1"):
        res = subprocess.run([sys.executable, "-c", FAMILIES_CHILD, str(ROOT / "src"),
                              str(ROOT / "perfbench"), trace],
                             capture_output=True, text=True, check=True, timeout=300)
        runs.append(json.loads(res.stdout))
    (plain, no_spans), (traced, spans) = runs
    assert set(plain) == builders and no_spans == []
    assert traced == plain
    assert {f"qops.{name}.eval" for name in builders} <= set(spans)
