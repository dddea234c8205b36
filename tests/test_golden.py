"""Byte-identical CLI output: a fixed grid of `opuc` invocations checked
against a golden file.

`golden_cli.txt` holds each invocation's exit code and standard output,
then, for a nonzero exit, its standard error after a ``[stderr]`` line,
with the times masked: every ``elapsed_ms`` field removed from JSON
reports, the ``[x.xxx ms]`` of text lines and the trailing
``elapsed_ms`` column of CSV tables.  CSV rows end with ``\r\n``, so the
file is read and written without newline translation.  Rewrite it only
for an intended output change, from the root of a checkout:

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import io
import json
import re
from pathlib import Path

from opuc.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.txt")

# dyadic entries are exact floats, so every route sees the same inputs
DYADIC = ("--alphas=-0.21875+0.484375i,-0.203125+0.296875i,0.09375+0.265625i,"
          "0.703125+0.015625i,-0.71875-0.359375i,0.046875+0.5i,0.5-0.25i,"
          "-0.125+0.375i,0.3125,-0.4375i")

GRID = (
    [("moment", DYADIC, "-n", n, "-r", r, "-s", s, "--method", "all",
      "--format", "json")
     for n, r, s in (("0", "2", "0"), ("1", "0", "0"), ("3", "1", "2"),
                     ("5", "2", "1"), ("6", "3", "3"))]
    + [("moment", "-n", n, "-r", r, "-s", s, "--method", "all",
        "--format", "json")
       for n, r, s in (("1", "0", "0"), ("2", "1", "2"), ("3", "0", "0"),
                       ("3", "2", "1"))]
    + [("moment", "--alphas", "1/2,1/3,2/5+1/5i", "-n", "2", "-s", "1",
        "--method", "all", "--format", "json"),
       # alpha_0 = 0 here, so the Schröder route is skipped
       ("moment", "--family", "al-salam-carlitz", "--param", "q=1/2",
        "-n", "2", "--method", "all", "--format", "json"),
       # the adjoined root t (t^2 = q) in the closed forms and in a moment
       ("family", "--name", "rogers_szego", "--param", "q=1/3",
        "--count", "6"),
       ("moment", "--family", "rogers_szego", "--param", "q=1/3",
        "-n", "2", "-r", "1", "-s", "0", "--method", "all",
        "--format", "json"),
       # q = 1/4 is a rational square, so t is the rational 1/2
       ("moment", "--family", "rogers_szego", "--param", "q=1/4",
        "-n", "2", "-r", "1", "--method", "all"),
       # big exact values: a t part over a 47-digit denominator, complex
       # parts, and a Jacobi cell with both shifts
       ("moment", "--family", "rogers_szego", "--param", "q=1/3",
        "-n", "12", "-r", "2", "-s", "1", "--method", "all"),
       ("moment", "--family", "bernstein_szego", "--param",
        "zeta=1/2+1/3i", "-n", "6", "-s", "2", "--method", "all"),
       ("moment", "--family", "circular_jacobi", "--param", "a=3/2",
        "-n", "10", "-r", "3", "-s", "2", "--method", "all"),
       # the constant family's closed (n, r, s) form, and the Chebyshev
       # ratios of the single nontrivial moment at a rational a
       ("moment", "--family", "geronimus", "--param", "alpha=1/2",
        "-n", "3", "-r", "2", "-s", "1", "--method", "closed"),
       ("family", "--name", "single_nontrivial", "--param", "a=1/2",
        "--count", "4")]
    + [("paths", "--model", model, "-n", n, "-r", r, "-s", s)
       for model, n, r, s in (("lukasiewicz", "3", "1", "1"),
                              ("gmotzkin", "2", "1", "0"),
                              ("schroder", "2", "1", "1"),
                              ("negative", "2", "1", "0"))]
    # listings whose weights are float prefix products, products carrying
    # the adjoined root t, and a gentle Motzkin walk past parity dead ends
    + [("paths", "--model", "lukasiewicz", DYADIC, "-n", "4", "-r", "1",
        "-s", "2", "--format", "json"),
       ("paths", "--model", "schroder", "-n", "3", "-r", "1", "-s", "1",
        "--family", "rogers_szego", "--param", "q=1/3"),
       ("paths", "--model", "gmotzkin", "-n", "3", "-r", "1", "-s", "2",
        "--format", "csv")]
    + [("verify", "--format", "text", "--max", "2"),
       ("verify", "--format", "text", "--max", "2", "--mode", "numeric")]
    # every (command, format) pair the blocks above leave out
    + [("moment", DYADIC, "-n", "3", "-r", "1", "-s", "2", "--method", "all"),
       ("moment", "--family", "al-salam-carlitz", "--param", "q=1/2",
        "-n", "2", "--method", "all"),
       ("moment", "-n", "2", "-r", "1", "-s", "2", "--method", "all",
        "--format", "csv"),
       ("paths", "--model", "schroder", "-n", "2", "-r", "1", "-s", "1",
        "--format", "json"),
       ("paths", "--model", "lukasiewicz", "-n", "3", "-r", "1", "-s", "1",
        "--format", "csv"),
       ("family",),
       ("family", "--name", "rogers_szego", "--param", "q=1/3",
        "--count", "6", "--format", "json"),
       ("family", "--name", "bernstein_szego", "--param", "zeta=0.5",
        "--count", "4", "--format", "csv"),
       ("verify", "--format", "json", "--max", "2"),
       ("verify", "--suite", "families", "--format", "text", "--max", "2",
        "--mode", "numeric")]
    # the family listing honours --format
    + [("family", "--format", fmt) for fmt in ("json", "csv")]
    # refused before any work: a negative --max, --cap or --count, a
    # symbolic seeded suite past the generic-moment cost guard, and a
    # generic listing past the generic-path cost guard
    + [("verify", "--suite", "cross-model", "--max", "-1"),
       ("verify", "--max", "-1"),
       ("paths", "--model", "lukasiewicz", "-n", "3", "--cap", "-3"),
       ("verify", "--max", "6"),
       ("paths", "--model", "lukasiewicz", "-n", "10"),
       ("family", "--name", "mass_point", "--param", "gamma=1/2",
        "--count", "-2")]
)


def _drop_elapsed(doc):
    for rec in doc["results"]:
        rec.pop("elapsed_ms", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _mask_times(argv, out):
    if "json" in argv:
        return _drop_elapsed(json.loads(out))
    if "csv" in argv:
        if out.startswith("n,r,s,method,value,elapsed_ms\r\n"):
            return re.sub(r"(?m),\d+\.\d{3}\r$", ",x.xxx\r", out)
        return out
    return re.sub(r"\[\d+\.\d{3} ms\]", "[x.xxx ms]", out)


def run_grid():
    """One ``$ opuc ...`` block per invocation: exit code, output, and
    the error text of a failed one."""
    blocks = []
    for argv in GRID:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        block = "$ opuc %s\n[exit %d]\n%s" % (
            " ".join(argv), code, _mask_times(argv, out.getvalue()))
        if code:
            block += "[stderr]\n" + err.getvalue()
        blocks.append(block)
    return blocks


def test_cli_output_matches_golden():
    with open(GOLDEN, newline="") as fh:
        golden = re.split(r"(?m)^(?=\$ opuc )", fh.read())[1:]
    assert run_grid() == golden


if __name__ == "__main__":
    with open(GOLDEN, "w", newline="") as fh:
        fh.write("".join(run_grid()))
