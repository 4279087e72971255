"""The README's library example runs and prints what its comments say."""
import contextlib
import io
import math
import pathlib
import re

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
