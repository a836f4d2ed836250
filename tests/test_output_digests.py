"""Byte identity of the CLI's output on a fixed corpus.

The corpus is the benchmark's seed-1 inputs, written by
``bench/workloads.generate`` into a temporary directory: every certify call
(text and JSON), every spin call, and a fixed subset of the halfdeg calls
(cycle 0, one call per (n, d) cell, plus the warm-up, set-up and judged
calls).  A few hand-written calls cover what those files lack: boundary rows,
signed zeros, ``--route all``, CSV output, exact ties between d=1 facets, and
the ``slice`` and ``fuzz`` payloads.  Each call's stdout sha256, verdict
fingerprint and exit code must equal the committed table
``output_digests.json``.  The fingerprint is the sha256 of the stdout with
every float literal replaced by one placeholder: it keeps the verdicts,
boundary flags, indices and layout and drops the printed values.

The halfdeg argmins, and the last bits of other witnesses, depend on the
numpy/LAPACK build, so the table records the build it was written on.  On
another build the exit codes and fingerprints are compared, and the sha256
half of the test is skipped.  A second test re-checks, in exact arithmetic,
the Sigma certificate of every lmi Member that the corpus's JSON calls print.

A change that moves output on purpose rewrites the table, and the command
prints each call that moved before it writes: "bytes moved, verdicts
unchanged" when only the sha256 moved, "verdicts moved" when the
fingerprint or exit code did, and "new" or "gone":

    PYTHONPATH=src python tests/test_output_digests.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from momentcert.core import DEFAULT_TOL, scaled_tolerance

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "output_digests.json"
SEED = 1

#: hand-written inputs: boundary rows (Q = 0, the zero moment vector), -0.0,
#: a point on the Sigma boundary of a d=2 row, and mixed (n, d)
POLY_ROWS = [
    {"n": 4, "d": 1, "a0": 0.0, "a": [0.0], "aa": [0.0]},
    {"n": 4, "d": 1, "a0": 1.0, "a": [-0.0], "aa": [-0.0]},
    {"n": 3, "d": 2, "a0": 2.5, "a": [0.5, -0.25], "aa": [0.125, -0.0625]},
    {"n": 7, "d": 2, "a0": -1.0, "a": [1.0, 2.0], "aa": [0.5, 0.25]},
    {"n": 5, "d": 3, "a0": 40.0, "a": [1.0, -2.0, 0.5], "aa": [-0.5, 0.25, 1.0]},
    {"n": 2, "d": 1, "a0": 1.0, "a": [2.0], "aa": [0.0]},
]
MOMENTS_CSV = """n,d,z0,z,zz
4,1,0.0,0.0,0.0
4,1,1.0,-0.0,-0.0
6,2,1.0,0.5,-0.5,2.0,3.0
6,2,1.0,6.0,0.0,30.0,0.0
3,1,-1.0,1.0,1.0
"""
#: d=1 rows whose minimal facets tie, at n = 4, 5 and 9 in one file: the
#: vertex of the facet parabola on a grid midpoint (two facets tie) and on a
#: grid point, A11 = 0, A1 = 0, A11 < 0 (both ends tie at A1 = 0), signed
#: zeros, and vertices past either end of the grid
D1_TIE_ROWS = [
    {"n": 4, "d": 1, "a0": 4.0, "a": [-2.0], "aa": [1.0]},
    {"n": 4, "d": 1, "a0": 3.0, "a": [-2.0], "aa": [1.0]},
    {"n": 5, "d": 1, "a0": 1.0, "a": [0.0], "aa": [1.0]},
    {"n": 9, "d": 1, "a0": 2.0, "a": [-6.0], "aa": [1.0]},
    {"n": 9, "d": 1, "a0": 2.0, "a": [-8.0], "aa": [2.0]},
    {"n": 4, "d": 1, "a0": 0.0, "a": [0.0], "aa": [0.0]},
    {"n": 5, "d": 1, "a0": -1.0, "a": [0.0], "aa": [0.0]},
    {"n": 5, "d": 1, "a0": 1.0, "a": [0.5], "aa": [0.0]},
    {"n": 9, "d": 1, "a0": 1.0, "a": [-0.5], "aa": [0.0]},
    {"n": 4, "d": 1, "a0": 1.0, "a": [0.0], "aa": [-1.0]},
    {"n": 9, "d": 1, "a0": 50.0, "a": [0.0], "aa": [-0.5]},
    {"n": 5, "d": 1, "a0": 1.0, "a": [0.25], "aa": [-1.0]},
    {"n": 4, "d": 1, "a0": -0.0, "a": [-0.0], "aa": [-0.0]},
    {"n": 9, "d": 1, "a0": -0.0, "a": [0.0], "aa": [-0.0]},
    {"n": 5, "d": 1, "a0": 0.0, "a": [-0.0], "aa": [0.0]},
    {"n": 9, "d": 1, "a0": 1.0, "a": [40.0], "aa": [1.0]},
    {"n": 9, "d": 1, "a0": 1.0, "a": [-40.0], "aa": [1.0]},
    {"n": 5, "d": 1, "a0": 6.0, "a": [-1.0], "aa": [0.125]},
]
#: a float literal as the CLI prints one (JSON repr, .6g text, inf/nan), not
#: part of a longer token such as a file name or a row index
FLOAT = re.compile(r"(?<![\w.])-?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
                   r"|Infinity|NaN|inf|nan)(?!\w|\.\w)")
PLANE = json.dumps({"base": [1.0, 0.0, 0.0], "dirs": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                    "lo": [-2.0, -2.0], "hi": [2.0, 2.0]})


def build() -> dict:
    """The numpy version and its BLAS/LAPACK build, as the table records it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError):
        blas = {}
    return {"numpy": np.__version__, "blas": blas}


def _corpus(directory: Path) -> dict[str, list[str]]:
    """Call key -> argv.  The key names input files relative to
    ``directory``, so it does not depend on where the corpus is written."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    calls: dict[str, list[str]] = {}

    def add(prefix: str, argv: list[str]):
        key = " ".join(a.replace(str(directory) + "/", "") for a in argv)
        calls[f"{prefix}: {key}"] = argv

    for workload in ("certify-text", "halfdeg-search", "spin-states"):
        plan = workloads.generate(workload, SEED, directory / workload)
        if workload == "halfdeg-search":
            ids = (plan.cycles[0] + plan.warmup + [plan.setup_call] + plan.judge_only)
        else:
            ids = range(len(plan.calls))
        for i in sorted(ids):
            argv = plan.calls[i]["argv"]
            add(workload, argv)
            if workload == "certify-text":
                add("certify-json", ["--output", "json"] + argv[2:])
    poly = directory / "mixed" / "poly.json"
    poly.write_text(json.dumps(POLY_ROWS))
    moments = directory / "mixed" / "moments.csv"
    moments.write_text(MOMENTS_CSV)
    for output in ("text", "json", "csv"):
        add("mixed", ["--output", output, "check-poly", "--route", "all", "--file", str(poly)])
        add("mixed", ["--output", output, "check-moments", "--file", str(moments)])
    for cone, output in (("Sigma", "json"), ("SigmaPrime", "csv"), ("C-suf", "json")):
        add("mixed", ["--output", output, "slice", "--cone", cone, "--plane", PLANE,
                      "--grid", "9", "--n", "4", "--d", "1"])
    ties = directory / "mixed" / "d1_ties.json"
    ties.write_text(json.dumps(D1_TIE_ROWS))
    add("mixed", ["--output", "json", "check-poly", "--route", "exact-d1", "--file", str(ties)])
    add("mixed", ["--output", "json", "slice", "--cone", "P", "--plane", PLANE,
                  "--grid", "9", "--n", "7", "--d", "1"])
    add("mixed", ["--output", "json", "fuzz", "--suite", "witness", "--iters", "4"])
    add("mixed", ["fuzz", "--suite", "lemma"])
    add("mixed", ["fuzz", "--suite", "equivalence", "--iters", "20"])
    return calls


def _call(argv: list[str]) -> tuple[str, int]:
    """stdout and exit code of one CLI call."""
    from momentcert import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return out.getvalue(), rc


def _outputs(directory: Path) -> dict[str, tuple[list[str], str, int]]:
    """Call key -> (argv, stdout, exit code), each call run once."""
    (directory / "mixed").mkdir(parents=True)
    return {key: (argv, *_call(argv)) for key, argv in _corpus(directory).items()}


def _digest(out: str, rc: int) -> dict:
    return {"sha256": hashlib.sha256(out.encode()).hexdigest(),
            "fingerprint": hashlib.sha256(FLOAT.sub("#", out).encode()).hexdigest(),
            "exit": rc}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, tuple[list[str], str, int]]:
    return _outputs(tmp_path_factory.mktemp("corpus"))


def test_cli_output_matches_the_digest_table(outputs):
    table = json.loads(TABLE.read_text())
    got = {key: _digest(out, rc) for key, (_, out, rc) in outputs.items()}
    assert sorted(got) == sorted(table["calls"])
    exits = {k: v["exit"] for k, v in got.items() if v["exit"] != table["calls"][k]["exit"]}
    assert not exits, f"exit codes moved: {exits}"
    verdicts = sorted(k for k, v in got.items()
                      if v["fingerprint"] != table["calls"][k]["fingerprint"])
    assert not verdicts, f"{len(verdicts)} verdict fingerprints moved, the first: {verdicts[:5]}"
    if table["build"] != build():
        pytest.skip(f"digests recorded on {table['build']}, this is {build()}")
    moved = sorted(k for k, v in got.items() if v != table["calls"][k])
    assert not moved, f"{len(moved)} outputs moved, the first: {moved[:5]}"


def test_the_fingerprint_drops_printed_values_and_keeps_verdicts():
    json_a = '{"status": "Member", "min_value": 1.0062348303863846, "argmin": [[-0.0, 1e-05]]}'
    json_b = '{"status": "Member", "min_value": 1.0062348303863873, "argmin": [[0.0, 2e-05]]}'
    text = "[3] NonMember residual=-1.77636e-15 n=4 file=poly-00-n3-d1.json\n"
    assert _digest(json_a, 0)["fingerprint"] == _digest(json_b, 0)["fingerprint"]
    assert (_digest(json_a, 0)["fingerprint"]
            != _digest(json_a.replace("Member", "NonMember"), 0)["fingerprint"])
    assert FLOAT.sub("#", text) == "[3] NonMember residual=# n=4 file=poly-00-n3-d1.json\n"
    assert FLOAT.sub("#", "[-inf, Infinity, NaN, .5, 3., 7]") == "[#, #, #, #, #, 7]"


def _sigma_certificate_fault(row: dict, c: float) -> str | None:
    """Why the arrow-LMI certificate of ``row`` at the printed c fails in
    exact arithmetic, or None.  It needs c >= 0, h_α = (c - n A_αα)/n² >= 0,
    n G_αα = (n-1) A_αα + c/n >= 0 (zero only where A_α = 0) and the Schur
    complement A0 - c - Σ (n A_α²/4)/((n-1) A_αα + c/n) >= -t."""
    n, cf = row["n"], Fraction(c)
    a, aa = [Fraction(v) for v in row["a"]], [Fraction(v) for v in row["aa"]]
    scale = max(1.0, abs(row["a0"]), *map(abs, row["a"]), *map(abs, row["aa"]))
    diag = [(n - 1) * v + cf / n for v in aa]
    if cf < 0:
        return "c < 0"
    if any(cf < n * v for v in aa):
        return "h < 0"
    if any(g < 0 or (g == 0 and ai != 0) for g, ai in zip(diag, a)):
        return "G not PSD on its diagonal"
    schur = Fraction(row["a0"]) - cf - sum(n * ai * ai / 4 / g for g, ai in zip(diag, a) if g)
    if schur < -Fraction(scaled_tolerance(DEFAULT_TOL, scale, n)):
        return f"Schur complement {float(schur):.3g} below -t"
    return None


def test_every_printed_sigma_certificate_passes_an_exact_check(outputs):
    """Every lmi Member of the corpus's JSON check-poly calls (each poly file,
    and --route all) prints a c at which the arrow certificate holds in
    fractions: exactly on c, h and G's diagonal, within t on the Schur
    complement."""
    checked, faults = 0, []
    for key, (argv, out, _) in outputs.items():
        if "--output json check-poly" not in key or not {"lmi", "all"} & set(argv):
            continue
        rows = json.loads(Path(argv[argv.index("--file") + 1]).read_text())
        results = json.loads(out)["results"]
        for i, (row, res) in enumerate(zip(rows, results, strict=True)):
            lmi = res["routes"]["lmi"]
            if lmi["status"] == "Member":
                checked += 1
                fault = _sigma_certificate_fault(row, lmi["c"])
                if fault:
                    faults.append(f"{key} [{i}]: {fault}")
    assert checked > 4000
    assert not faults, f"{len(faults)} of {checked} fail, the first: {faults[:3]}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        calls = {key: _digest(out, rc) for key, (_, out, rc) in _outputs(Path(tmp)).items()}
    old = json.loads(TABLE.read_text())["calls"] if TABLE.exists() else {}
    for key in sorted(calls.keys() | old.keys()):
        was, now = old.get(key), calls.get(key)
        if was is None or now is None:
            print(f"{'gone' if now is None else 'new'}: {key}")
        elif any(was.get(f) != now[f] for f in ("fingerprint", "exit")):
            print(f"verdicts moved: {key}")
        elif was != now:
            print(f"bytes moved, verdicts unchanged: {key}")
    TABLE.write_text(json.dumps({"build": build(), "seed": SEED, "calls": calls},
                                indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(calls)} digests to {TABLE}")
