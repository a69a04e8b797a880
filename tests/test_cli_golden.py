"""Byte-exact CLI outputs.

``data/cli_golden.json`` holds the argv, exit code and stdout of in-process
``cli.main`` calls: every README and PAPER.md example, each query kind in the
formats it accepts on the built-ins and on a ``.vac`` superfermion file,
operands with ``vac``, ``T(...)``, parameter factors and multi-term
coefficients, and usage and parse errors.  An argv entry ``@name.vac`` stands
for a file written from ``DEFINITIONS`` (``@missing.vac`` is never written).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from vacalc.frontend.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"

DEFINITIONS = {
    # The README's definition-file example, run as ``--algebra my.vac``.
    "my.vac": """algebra virasoro {
  param c;
  generator L : even, weight 2;
  central C : even acts c;
  bracket [L, L] = d(L) + 2*lambda*L + (lambda^3/12)*C;
}
""",
    "superfermion.vac": """algebra superfermion {
  generator b1 : even, weight 1/2;
  generator b2 : even, weight 1/2;
  generator psi1 : odd, weight 1/2;
  generator psi2 : odd, weight 1/2;
  central K : even acts 1;
  bracket [b1, b2] = K;
  bracket [psi1, psi1] = K;
  bracket [psi2, psi2] = K;
}
""",
    "zero-weight-denominator.vac": """algebra w {
  generator a : even, weight 1/0;
}
""",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("vac")
    out = {"@missing.vac": str(root / "missing.vac")}
    for name, text in DEFINITIONS.items():
        (root / name).write_text(text)
        out["@" + name] = str(root / name)
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_outputs_match_golden(paths):
    cases = json.loads(DATA.read_text())
    assert len(cases) > 150
    mismatches = []
    for case in cases:
        argv = [paths.get(arg, arg) for arg in case["argv"]]
        code, out, err = _run(argv)
        if (code, out) != (case["code"], case["stdout"]):
            mismatches.append(f"{case['argv']}: exit {code}, stdout {out!r}")
        if code == 2:
            lines = err.splitlines()
            if out or not lines or not lines[0].startswith("vacalc: ") or "Traceback" in err:
                mismatches.append(f"{case['argv']}: bad diagnostic {err!r}")
            if len(lines) != 1 and not lines[1].startswith("usage:"):
                mismatches.append(f"{case['argv']}: diagnostic is not one line: {err!r}")
    assert not mismatches, "\n".join(mismatches)
