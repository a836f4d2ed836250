"""The batch parse of ``check-moments`` and ``check-poly`` input equals the
one-row parse, bit for bit.

``cli._load_moment_rows`` and ``cli._load_poly_rows`` convert each column of
a d-group in one pass and fall back to converting vector by vector for any
spelling that pass does not take.  Every row they return must hold the bits
``MomentVector.from_json_dict`` / ``SymmetricQuadratic.from_json_dict``
give for that row alone (a CSV row read as the record of its cells: ``int``
of n and d, ``float`` of the rest), and a bad row must be reported with the
one-row message and its line.  The inputs are the benchmark's seed-1
certify files (the digest corpus) and a table of edge spellings that takes
every fallback branch: a bare-number vector, a nested list, a bool, a
numeric string, n written 4.0 or 4.5, blank and whitespace-only CSV lines.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from momentcert import cli
from momentcert.core import MomentVector, SymmetricQuadratic

ROOT = Path(__file__).resolve().parent.parent


def _loaded(batches) -> list[tuple]:
    """Per input row, in input order: n, d and the bytes of x0, x and xx."""
    rows = {}
    for b in batches:
        for k, i in enumerate(b.index.tolist()):
            rows[i] = (b.n[k].tobytes(), b.d, b.x0[k].tobytes(), b.x[k].tobytes(),
                       b.xx[k].tobytes())
    assert sorted(rows) == list(range(len(rows)))
    return [rows[i] for i in range(len(rows))]


def _one_row(obj: dict, cls) -> tuple:
    """The row ``from_json_dict`` builds, in the layout of :func:`_loaded`."""
    v = cls.from_json_dict(obj)
    x0, x, xx = (getattr(v, f) for f in (("z0", "z", "zz") if cls is MomentVector
                                         else ("a0", "a", "aa")))
    return (np.float64(v.dims.n).tobytes(), v.dims.d, np.float64(x0).tobytes(),
            x.tobytes(), xx.tobytes())


def _csv_records(text: str) -> list[dict]:
    """The data rows of a moment CSV file as records, blank lines skipped."""
    out = []
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        if row and any(map(str.strip, row)):
            d = int(row[1])
            out.append({"n": int(row[0]), "d": d, "z0": float(row[2]),
                        "z": [float(c) for c in row[3:3 + d]],
                        "zz": [float(c) for c in row[3 + d:]]})
    return out


def _check_csv(path: Path):
    want = [_one_row(r, MomentVector) for r in _csv_records(path.read_text())]
    assert _loaded(cli._load_moment_rows(str(path))) == want


def _check_json(path: Path, cls):
    records = json.loads(path.read_text())
    records = records if isinstance(records, list) else [records]
    load = cli._load_moment_rows if cls is MomentVector else cli._load_poly_rows
    assert _loaded(load(str(path))) == [_one_row(r, cls) for r in records]


def test_batch_parse_equals_one_row_parse_on_the_digest_corpus(tmp_path):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    plan = workloads.generate("certify-text", 1, tmp_path)
    files = sorted({Path(c["argv"][c["argv"].index("--file") + 1]) for c in plan.calls})
    assert len(files) == 17
    for path in files:
        if path.suffix == ".csv":
            _check_csv(path)
        else:
            _check_json(path, SymmetricQuadratic)


GOOD = {"n": 4, "d": 2, "a0": 1.5, "a": [0.5, -0.25], "aa": [0.125, -0.0]}
D1 = {"n": 5, "d": 1, "a0": -1.0, "a": [2.0], "aa": [0.75]}

#: records that load; each is put among good records of its d, so that the
#: spelling sends its whole d-group down the fallback
EDGE_RECORDS = [
    {**D1, "a": 0.5},                         # a bare number at d=1
    {**D1, "aa": "0.5"},                      # a bare numeric string
    {**GOOD, "a": [[0.5], [-0.25]]},          # a nested list
    {**GOOD, "aa": [[0.125, -0.0]]},
    {**GOOD, "a": [True, 0.5]},               # a bool
    {**GOOD, "a0": True, "aa": [False, 1]},
    {**GOOD, "a": ["0.5", " 1_0 "]},          # numeric strings
    {**GOOD, "a0": "-2.5"},
    {**GOOD, "n": 4.0, "d": 2.0},             # integral floats as n and d
    {**GOOD, "a": [1, 2 ** 60]},              # ints among the values
    {**GOOD, "a": [0.5, 3]},
]

#: records that are refused, with the message of ``from_json_dict``
BAD_RECORDS = [
    {**GOOD, "n": 4.5},
    {**GOOD, "a": [0.5]},                     # a list of the wrong length
    {**GOOD, "aa": [0.1, 0.2, 0.3]},
    {**GOOD, "a": [None, 0.5]},               # None reads as NaN
    {**GOOD, "a": ["x", 0.5]},
    {**GOOD, "a": [0.5, int("1" * 400)]},
    {**GOOD, "aa": {"1": 0.5, "2": 0.5}},     # a dict of two keys
    {**GOOD, "a": "12"},                      # a string of d characters
    {**D1, "a": [[0.5, 0.5]]},
    {**GOOD, "a0": 1e200},                    # values past core.magnitude_bound
    {**GOOD, "aa": [0.125, -1e200]},
    {**D1, "a": [1e300]},
]


@pytest.mark.parametrize("cls", (MomentVector, SymmetricQuadratic))
def test_batch_parse_equals_one_row_parse_on_edge_spellings(tmp_path, capsys, cls):
    names = ("z0", "z", "zz") if cls is MomentVector else ("a0", "a", "aa")

    def spelled(r: dict) -> dict:
        return {names[("a0", "a", "aa").index(k)] if k in ("a0", "a", "aa") else k: v
                for k, v in r.items()}

    f = tmp_path / "rows.json"
    for edge in EDGE_RECORDS:
        # alone, among good rows of its d (one group), and in a mixed-d file
        for rows in ([edge], [GOOD, edge, GOOD], [D1, GOOD, edge, D1, GOOD]):
            f.write_text(json.dumps([spelled(r) for r in rows]))
            _check_json(f, cls)
    kind, command = (("moment", "check-moments") if cls is MomentVector
                     else ("polynomial", "check-poly"))
    for bad in BAD_RECORDS:
        with pytest.raises(Exception) as exc:
            cls.from_json_dict(spelled(bad))
        f.write_text(json.dumps([spelled(r) for r in (GOOD, D1, bad, GOOD)]))
        code, out = cli.main([command, "--file", str(f)]), capsys.readouterr()
        assert (code, out.out) == (64, "")
        assert out.err == f"error: {f}: bad {kind} record: {exc.value}\n", bad


CSV_HEAD = "n,d,z0,z,zz\n"
CSV_ROWS = ["4,1,1.0,0.5,0.25", "7,2,1.0,0.1,-0.0,0.3,0.4", "3,1, 2.5 ,1_0,-1e-300"]


@pytest.mark.parametrize("blank", ("", "   ", "\t", ", ,", ",,,,,"))
def test_blank_csv_lines_are_skipped_and_counted(tmp_path, capsys, blank):
    """Blank and whitespace-only lines in the middle and at the end of a
    file: the rows load as without them, and a bad row after them is
    reported at its own line."""
    f = tmp_path / "rows.csv"
    text = CSV_HEAD + "\n".join([CSV_ROWS[0], blank, CSV_ROWS[1], blank, blank,
                                 CSV_ROWS[2], blank]) + "\n"
    f.write_text(text)
    _check_csv(f)
    assert len(_loaded(cli._load_moment_rows(str(f)))) == 3
    for bad, message in (("5,1,1.0,x,0.0", "could not convert string to float: 'x'"),
                         (" ,1,1.0,0.0,0.0", "invalid literal for int() with base 10: ' '"),
                         ("5,2,1.0,0.0", "expected 5 values after n,d")):
        f.write_text(text + bad + "\n" + CSV_ROWS[0] + "\n")
        code, out = cli.main(["check-moments", "--file", str(f)]), capsys.readouterr()
        assert (code, out.out, out.err) == (64, "", f"error: {f}: line 9: {message}\n")


def test_a_row_with_a_blank_first_cell_is_not_blank(tmp_path, capsys):
    """Only a row whose cells are all blank is skipped: one with a blank
    first cell is parsed, and refused at its line, blank lines or not."""
    f = tmp_path / "rows.csv"
    for sep in ("\n", "\n\n"):
        f.write_text(CSV_HEAD + sep.join([CSV_ROWS[0], " ,1,1.0,0.5,0.25", CSV_ROWS[1]]) + "\n")
        code, out = cli.main(["check-moments", "--file", str(f)]), capsys.readouterr()
        line = 3 if sep == "\n" else 4
        assert (code, out.err) == (64, f"error: {f}: line {line}: invalid literal for int() "
                                       f"with base 10: ' '\n")


def test_csv_values_convert_as_float_converts_each_cell(tmp_path):
    """Cells with spaces, underscores, signs, exponents and -0.0 in one- and
    mixed-d files load as ``float`` of each cell."""
    f = tmp_path / "rows.csv"
    cells = ["0.5", " -0.0", "+1e3 ", "1_000.5", "-7", "1e-310", "٣.5", "4.9e-324"]
    rng = np.random.default_rng(22)
    for _ in range(20):
        lines = []
        for _ in range(int(rng.integers(1, 12))):
            d = int(rng.integers(1, 4))
            vals = [cells[k] for k in rng.integers(len(cells), size=1 + 2 * d)]
            lines.append(",".join([str(int(rng.integers(2, 40))), str(d), *vals]))
        f.write_text(CSV_HEAD + "\n".join(lines) + "\n")
        _check_csv(f)


def test_special_floats_in_json_are_refused_as_one_row(tmp_path, capsys):
    """NaN and Infinity, which the JSON reader accepts, reach the value
    checks on the fast path and are refused with the one-row message."""
    f = tmp_path / "rows.json"
    for field, value in (("a", [math.nan, 0.5]), ("aa", [0.1, math.inf]), ("a0", -math.inf)):
        bad = {**GOOD, field: value}
        with pytest.raises(ValueError) as exc:
            SymmetricQuadratic.from_json_dict(bad)
        f.write_text(json.dumps([GOOD, bad]))
        code, out = cli.main(["check-poly", "--file", str(f)]), capsys.readouterr()
        assert (code, out.err) == (64, f"error: {f}: bad polynomial record: {exc.value}\n")
