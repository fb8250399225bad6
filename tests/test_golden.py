"""Golden linearizations.

Round-trip tests accept any token order that rebuilds the tree; this
test pins the order itself.  `tests/data/golden_linearize.txt` holds the
exact `linearize --jsonl` output for the bundled `toy20` and `fig_disco`
banks under every shipped scheme, read from standard input.  A scheme
that cannot encode a bank is pinned by its exit code and error line.

When a change of output is intended, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_linearize.txt
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

import discoseq as dq
from discoseq import cli

GOLDEN = Path(__file__).parent / "data" / "golden_linearize.txt"
BANKS = ("toy20.discbracket", "fig_disco.discbracket")


def render_golden() -> str:
    sections = []
    for bank in BANKS:
        text = files("discoseq").joinpath("data", bank).read_text(encoding="utf-8")
        for scheme in dq.SHIPPED_SCHEMES:
            out, err = io.StringIO(), io.StringIO()
            stdin, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(["linearize", "--scheme", str(scheme), "--jsonl"])
            finally:
                sys.stdin = stdin
            body = out.getvalue() if code == 0 else err.getvalue()
            sections.append(f"== {bank} {scheme} exit {code}\n{body}")
    return "".join(sections)


def test_linearize_matches_the_golden_file():
    assert render_golden().encode("utf-8") == GOLDEN.read_bytes()


if __name__ == "__main__":
    sys.stdout.write(render_golden())
