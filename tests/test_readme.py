"""The README's library example runs and prints what its comments say, and
each of its `suq2` command lines exits 0."""
import contextlib
import io
import math
import pathlib
import re
import shlex

import pytest

from suq2 import cli

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_library_example_prints_what_it_claims():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    q3, product = (complex(line) for line in out.getvalue().split())
    q = 1.2
    assert abs(q3 - (q ** 2 + 1 + q ** -2)) < 1e-12                 # [3]
    assert abs(product - math.sqrt(1.0 * (q + 1 / q))) < 1e-12      # sqrt([1][2])


def _cli_examples() -> list:
    """Every `suq2 ...` line of the README's sh blocks, as an argv."""
    text = README.read_text(encoding="utf-8")
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("suq2 ")]


def test_there_are_cli_examples():
    assert len(_cli_examples()) >= 11


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_cli_example_exits_zero(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
