"""The JSON writer against ``json.dumps(obj, indent=2, sort_keys=True)``."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert import cli

#: characters that are JSON structure outside a string, escapes, and
#: non-ASCII text, so that strings exercise the quote-parity mask and the
#: stdlib fallback
TRICKY = st.text(st.sampled_from(list('[]{},":\\ az09\n\t') + ["é", "☃", "\x00"]),
                 max_size=6)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS
           | FLOATS.map(np.float64) | TRICKY
           | st.sampled_from(["ok", "Member", "x", ""]))  # strings without escapes
#: key types that sort among themselves; JSON writes the non-string ones as
#: their literal text
KEYS = (TRICKY | st.sampled_from(["a", "b", "status", "witness"]),
        st.integers() | FLOATS | FLOATS.map(np.float64) | st.booleans(),
        st.none())


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
            | st.one_of(*(st.dictionaries(k, children, max_size=4) for k in KEYS)))


TREES = st.recursive(SCALARS, _containers, max_leaves=25)
RECORDS = st.dictionaries(st.sampled_from(["status", "boundary", "input", "witness"]),
                          TREES, max_size=4)


def _reference(obj, depth: int = 0) -> str:
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


@settings(max_examples=400, deadline=None)
@given(obj=TREES, depth=st.integers(0, 3))
def test_indented_json_matches_stdlib(obj, depth):
    assert cli._indented_json(obj, depth) == _reference(obj, depth)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}, "b": [[], {}]}, [[[]], [{}, []]],
    (), ((),), [math.nan, math.inf, -math.inf], {None: 1}, {1.5: []}, {True: {}},
    '"', "[", "\\", "é", 0, -0.0, None,
])
def test_indented_json_edge_cases(obj):
    for depth in (0, 2):
        assert cli._indented_json(obj, depth) == _reference(obj, depth)


@pytest.mark.parametrize("obj", [{None: 1, "a": 2}, [{1: 0, "1": 0}], {"a": object()}])
def test_indented_json_refuses_what_stdlib_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._indented_json(obj)


def _emitted(results) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_verdicts(np.zeros(len(results), dtype=int), np.zeros(len(results), dtype=bool),
                           lambda lo, hi: results[lo:hi],
                           cli.RunConfig(seed=0, tol=1e-9, output="json"))
    return out.getvalue()


@pytest.mark.parametrize("count", [0, 1, cli.JSON_BLOCK, cli.JSON_BLOCK + 1])
@settings(max_examples=25, deadline=None)
@given(records=st.lists(RECORDS, min_size=1, max_size=5))
def test_streamed_verdicts_match_one_dump(count, records):
    results = [records[i % len(records)] for i in range(count)]
    assert _emitted(results) == _reference({"results": results, "schema": cli.SCHEMA}) + "\n"

