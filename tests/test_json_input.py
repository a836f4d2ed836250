"""The JSON input decoder: orjson behind json's decoder hook gives json's
values, errors and messages on every input the commands read."""

import ast
import json
import re
import subprocess
import sys
import tomllib
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import orjson
import pytest

from momentcert import cli
from momentcert.cli import main
from momentcert.spin import ghz_state

ROOT = Path(__file__).resolve().parents[1]
DEEP = 3000

#: numeric spellings where orjson and json may differ: refused by orjson
#: (NaN, infinities, past the float range), an int past 64 bits (a float to
#: orjson, an int to json), signed zeros and long decimals
NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "5e-324",
           str(2**64 + 1), str(10**23), str(10**30 + 1), "-0", "-0.0", "1E2", "0.1",
           "123456789012345678901234567890.5", "0"]


def _record(fields: dict) -> str:
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


MOMENT = {"n": "4", "d": "1", "z0": "1", "z": "[0.5]", "zz": "[0.25]"}
POLY = {"n": "4", "d": "1", "a0": "1", "a": "[-0.5]", "aa": "[0.25]"}
STATE = {k: json.dumps(v) for k, v in ghz_state(2).to_json_dict().items()}


def _variants(fields: dict, slots: dict) -> list[str]:
    """The edge files of one record layout: each slot of ``slots`` (key ->
    how the value is spelled around a number) holding each of NUMBERS, and
    the structural cases."""
    texts = [_record({**fields, key: spell.format(v)})
             for key, spell in slots.items() for v in NUMBERS]
    plain = _record(fields)
    key = next(iter(slots))
    texts += [
        "﻿" + plain,  # a BOM
        plain[:-1] + ",}",  # a trailing comma
        f"[{plain},]",
        '{"n": 9, ' + plain[1:],  # a duplicate key, the last one kept
        plain[:-1] + ', "\\ud800": 1}',  # a lone surrogate, escaped
        plain[:-1] + ', "x": "\\ud800"}',
        plain[:-1] + ', "x]]]": "[[[["}',  # brackets inside strings
        _record({**fields, key: "[" * DEEP + "1" + "]" * DEEP}),
        _record({**fields, key: "[" * 300 + "1" + "]" * 300}),  # past ORJSON_DEPTH
        "[" * DEEP + "]" * DEEP,
        f"[{plain}, {plain}]",
        plain,
    ]
    return texts


CORPUS = (
    [(["check-moments", "--file"], t) for t in _variants(
        MOMENT, {"n": "{}", "d": "{}", "z0": "{}", "z": "[{}]", "zz": "[{}]"})]
    + [(["check-poly", "--route", "all", "--file"], t) for t in _variants(
        POLY, {"n": "{}", "d": "{}", "a0": "{}", "a": "[{}]", "aa": "[{}]"})]
    + [(["spin", "--state"], t) for t in _variants(
        STATE, {"n": "{}", "re": "[[{}, 0, 0], [0, 0, 0], [0, 0, 0.5]]",
                "im": "[[0, 0, 0], [0, {}, 0], [0, 0, 0]]"})])


def test_orjson_branch_prints_what_json_prints(tmp_path, capsys, monkeypatch):
    """Every command prints the same stdout and stderr and exits alike on
    every edge file with the orjson branch on and forced off; orjson decides
    the files it accepts, and json the rest."""
    used = []

    def loads(s):
        value = orjson_loads(s)
        used.append(True)
        return value

    orjson_loads = orjson.loads
    f = tmp_path / "input.json"
    decided_by_orjson = 0
    for argv, text in CORPUS:
        f.write_text(text, encoding="utf-8")
        with monkeypatch.context() as m:
            m.setattr(cli.orjson, "loads", loads)
            used.clear()
            on = main([*argv, str(f)]), *capsys.readouterr()
            decided_by_orjson += bool(used)
            m.setattr(cli, "_shallow", lambda s: False)
            used.clear()
            off = main([*argv, str(f)]), *capsys.readouterr()
            assert not used
        assert on == off, (argv, text[:80])
        assert on[0] != 64 or len(on[2].splitlines()) == 1, (argv, text[:80], on)
    assert 100 < decided_by_orjson < len(CORPUS)


def test_deep_nesting_is_refused_in_one_line(tmp_path, capsys):
    """json's RecursionError is a JSONDecodeError: exit 64 and one line
    (check-moments and check-poly files: test_input_refusal_prints_one_line)."""
    state = tmp_path / "state.json"
    state.write_text(_record({**STATE, "re": "[" * DEEP + "]" * DEEP}))
    plane = '{"base": ' + "[" * DEEP + "]" * DEEP + "}"
    for argv, message in (
            (["spin", "--state", str(state)], "invalid state"),
            (["slice", "--cone", "Sigma", "--n", "4", "--d", "1", "--plane", plane],
             "invalid plane spec")):
        assert (main(argv), *capsys.readouterr()) == (
            64, "", f"error: {message}: nesting too deep: line 1 column 1 (char 0)\n")


def test_nesting_past_the_c_stack_is_refused_not_crashed(tmp_path):
    """orjson 3.8 recurses without a bound: 10^6 levels overflowed the C
    stack (SIGSEGV).  Such text never reaches it; run in a child process,
    so that a crash fails this test only."""
    f = tmp_path / "deep.json"
    f.write_text("[" * 10**6 + "]" * 10**6)
    proc = subprocess.run([sys.executable, "-m", "momentcert.cli", "check-poly", "--file", str(f)],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        64, "", f"error: {f}: invalid JSON at line 1\n")


def test_shallow_judges_depth_outside_strings():
    depth = cli.ORJSON_DEPTH
    assert cli._shallow("[" * depth + "]" * depth)
    assert not cli._shallow("[" * (depth + 1) + "]" * (depth + 1))
    # brackets inside strings do not nest, even ones that would close
    assert cli._shallow('["' + "[" * 2 * depth + '"]')
    assert not cli._shallow('["' + "]" * depth + '", ' + "[" * (depth + 1) + "]" * (depth + 2))
    assert not cli._shallow('"\\n"')  # a backslash: not judged
    assert cli._shallow(json.dumps([[0.5] * 3] * (4 * depth)))
    # text with no structure character at all, and text with few brackets
    assert cli._shallow("") and cli._shallow("0.5") and cli._shallow('{"n": [[1]]}')


def _decimal_neighbours(x: float) -> list[str]:
    """The exact decimal midpoint between x and the next double up, and the
    decimals one unit of its last digit below and above it."""
    with localcontext() as ctx:
        ctx.prec = 1200
        mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
        unit = Decimal((0, (1,), mid.as_tuple().exponent))
        return [str(mid), str(mid - unit), str(mid + unit)]


def test_orjson_rounds_decimals_as_float_does():
    """Exact midpoints between adjacent doubles (round half to even) with
    their decimal neighbours, shortest reprs of random bit patterns, and
    15-40 digit decimals over the whole exponent range parse to the bits
    ``float`` gives, through orjson and through the decoder."""
    rng = np.random.default_rng(2026)
    xs = rng.integers(0, 0x7FEF_FFFF_FFFF_FFFF, size=1200, dtype=np.int64).view(np.float64)
    texts = [t for x in xs.tolist() for t in _decimal_neighbours(x)]
    texts += [repr(x) for x in xs.tolist()]
    texts += [f"{rng.integers(1, 10)}.{''.join(map(str, rng.integers(0, 10, size=k)))}"
              f"e{rng.integers(-330, 308)}" for k in rng.integers(14, 40, size=1200)]
    text = "[" + ", ".join(texts) + "]"
    want = np.array([float(t) for t in texts])
    assert np.isfinite(want).all()
    for got in (orjson.loads(text), json.loads(text, cls=cli._JsonDecoder)):
        assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))


def test_every_third_party_import_is_a_declared_dependency():
    """Each top-level module that ``src`` imports is the standard library's,
    the package's own, or named in pyproject.toml's dependencies."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                    for d in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "momentcert"}
    assert third_party == {"numpy", "orjson"}
    assert third_party <= declared
