"""The JSON writer against ``json.dumps(obj, indent=2, sort_keys=True)``."""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert import cli
from momentcert.core import (MomentVector, ProblemDims, SymmetricQuadratic, margin_verdict,
                             scaled_tolerance)
from momentcert.exact_d1 import p_n1_membership
from momentcert.halfdeg import reduced_global_min
from momentcert.moment_cone import classify
from momentcert.sos_cone import sigma_rows

#: characters that are JSON structure outside a string, escapes, and
#: non-ASCII text, so that a record's layout is cut at its slot markers only
TRICKY = st.text(st.sampled_from(list('[]{},":\\ az09\n\t') + ["é", "☃", "\x00"]),
                 max_size=6)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS
           | FLOATS.map(np.float64) | TRICKY
           | st.sampled_from(["ok", "Member", "x", ""]))  # strings without escapes
#: dict keys: strings, as the keys of every record tree are (a record's
#: layout sorts its keys as the strings they are written as)
KEYS = TRICKY | st.sampled_from(["a", "b", "status", "witness"])


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(KEYS, children, max_size=4))


#: constants of a record tree
CONSTANTS = st.recursive(SCALARS, _containers, max_leaves=25)
#: the columns of leaf values of a record tree, three rows each: floats (two
#: a row), ints and bools, whose keys put the floats last in text order
COLUMN = np.array([[1.5, -0.0], [math.nan, 1.0], [5e-324, -math.inf]])
INTS = np.array([3, -1, 0], dtype=np.int64)
FLAGS = np.array([True, False, True])


def _reference(obj, depth: int = 0) -> str:
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _record_case(obj, depth: int):
    """A record tree with the constant ``obj`` beside its leaf columns and
    ``depth`` dicts above it, and the dict of each of its rows."""
    tree, rows = {"leaf": COLUMN, "flag": FLAGS, "k": INTS, "const": obj}, [
        {"leaf": r, "flag": f, "k": k, "const": obj}
        for r, f, k in zip(COLUMN.tolist(), FLAGS.tolist(), INTS.tolist())]
    for _ in range(depth):
        tree, rows = {"b": tree, "a": obj}, [{"b": r, "a": obj} for r in rows]
    return tree, rows


def _assert_record_texts(obj, depth: int):
    """Each row's text, as a record of the results list, is the indented
    dump of its dict, for all rows at once and for each row alone."""
    tree, rows = _record_case(obj, depth)
    expect = ["\n    " + _reference(r, 2) for r in rows]
    leaves = cli._record_leaves(tree)
    assert cli._record_texts(*leaves, slice(None)).tolist() == expect
    assert [cli._record_texts(*leaves, slice(i, i + 1)).item() for i in range(3)] == expect


@settings(max_examples=400, deadline=None)
@given(obj=CONSTANTS, depth=st.integers(0, 3))
def test_indented_json_matches_stdlib(obj, depth):
    """A record's layout (the text of the record whose leaves are slot
    markers, cut at the markers) and its leaf texts read as the stdlib's
    indented dump, with any constants beside the leaves."""
    _assert_record_texts(obj, depth)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}, "b": [[], {}]}, [[[]], [{}, []]],
    (), ((),), [math.nan, math.inf, -math.inf], {None: 1}, {1.5: []}, {True: {}},
    '"', "[", "\\", "é", 0, -0.0, None,
])
def test_indented_json_edge_cases(obj):
    for depth in (0, 2):
        _assert_record_texts(obj, depth)


def _stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _moment_reference(moments, tol: float) -> list[dict]:
    """check-moments records as dicts: the verdict and witness of each row's
    B=1 view, converted by ``_witness_jsonable``."""
    out = []
    for m in moments:
        v = classify(m, tol)
        out.append({"status": v.status.value, "boundary": v.boundary,
                    "witness": cli._witness_jsonable(v.witness)})
    return out


def _route_record(route: str, q: SymmetricQuadratic, tol: float) -> dict:
    """One route's record of q from its kernel run on q alone."""
    n = q.dims.n
    one = (np.array([q.a0]), q.a[None], q.aa[None], n)
    t = scaled_tolerance(tol, q.coeff_scale(), n)
    r = sigma_rows(*one, tol)
    if route == "lmi":
        member, edge = r.member[0], r.boundary[0]
        extra = {"c": r.c.tolist()[0], "slack": r.slack.tolist()[0]}
    elif route == "ellipsoid":
        member, edge = margin_verdict(r.min_value[0], t)
        extra = {"min_value": r.min_value.tolist()[0], "x": r.x[0].tolist(),
                 "y": r.y[0].tolist()}
    elif route == "exact-d1":
        v = p_n1_membership(q, tol)
        member, edge = v.is_member, v.boundary
        extra = {"witness": cli._witness_jsonable(v.witness)}
    else:
        val, found = reduced_global_min(q, seed=0)
        member, edge = margin_verdict(val, t)
        extra = {"min_value": val, "argmin": found.points.tolist()}
    return {"status": "Member" if member else "NonMember", "boundary": bool(edge), **extra}


def _poly_reference(polys, route: str, tol: float) -> list[dict]:
    """check-poly records as dicts, as each route reports them."""
    names = ("lmi", "ellipsoid", "exact-d1", "halfdeg") if route == "all" else (route,)
    out = []
    for q in polys:
        routes = {r: _route_record(r, q, tol) for r in names if r != "exact-d1" or q.dims.d == 1}
        sos = {routes[r]["status"] for r in ("lmi", "ellipsoid") if r in routes}
        out.append({"status": routes["lmi" if route == "all" else route]["status"],
                    "routes": routes, "disagreement": len(sos) > 1,
                    "all_statuses": sorted({r["status"] for r in routes.values()})})
    return out


def _corpus(seed: int, count: int, d_max: int, n_max: int = 8):
    """``count`` moment vectors and quadratics of mixed (n, d), with every
    moment verdict, zero and -0.0 entries and moment vectors with z0 = 0."""
    rng = np.random.default_rng(seed)
    moments, polys = [], []
    for i in range(count):
        n, d = int(rng.integers(2, n_max + 1)), int(rng.integers(1, d_max + 1))
        dims = ProblemDims(n, d)
        f = [1e-3, 0.3, 3.0][i % 3]
        z, zz = f * n * rng.normal(size=d), f * n * rng.normal(size=d)
        z[::2] *= i % 5 != 0  # 0.0 or -0.0
        moments.append(MomentVector(dims, float(i % 7 != 0), z, zz))
        a0 = float(rng.normal()) + (n * n if i % 2 else 0.0)
        a, aa = 0.3 * rng.normal(size=d), rng.normal(size=d)
        aa[-1] *= i % 4 != 0
        polys.append(SymmetricQuadratic(dims, a0, a, aa))
    return moments, polys


#: the zero vector, a Member on the boundary (sufficient residual 0) and -0.0
EDGE_MOMENTS = [MomentVector(ProblemDims(4, 1), 0.0, [0.0], [0.0]),
                MomentVector(ProblemDims(4, 1), 1.0, [0.0], [-3.0]),
                MomentVector(ProblemDims(4, 2), 1.0, [-0.0, 0.0], [-3.0, -0.0])]
#: Q = -1 (the arrow LMI's c interval is empty: slack -inf), Q = 0, Q = -0.0
#: (arrow LMI slack -0.0) and two quadratics in P but not in Sigma
EDGE_POLYS = [SymmetricQuadratic(ProblemDims(4, 1), -1.0, [0.0], [0.0]),
              SymmetricQuadratic(ProblemDims(3, 1), 0.0, [-0.0], [-0.0]),
              SymmetricQuadratic(ProblemDims(3, 1), -0.0, [0.0], [0.0]),
              SymmetricQuadratic(ProblemDims(3, 1), 1.25, [0.0], [0.5]),
              SymmetricQuadratic(ProblemDims(5, 1), 2.25, [0.0], [0.5])]


def _write(path, rows) -> str:
    path.write_text(json.dumps([r.to_json_dict() for r in rows]))
    return str(path)


def _matches(argv, expect: list, budgets=lambda: [None]) -> str:
    """The stdout of the JSON call ``argv``, checked to be the one dump of
    ``expect`` at each leaf budget that iterating ``budgets()`` sets."""
    for _ in budgets():
        code, out = _stdout(["--output", "json", *argv])
        assert code != 64
        assert out == json.dumps({"results": expect, "schema": cli.SCHEMA}, indent=2,
                                 sort_keys=True) + "\n", argv
    return out


#: the leaf budgets (JSON_BLOCK_LEAVES) of the block-edge tests: below one
#: record, so that every block is one row; a few records and a few dozen, so
#: that a corpus of a few dozen rows spans several blocks in most of its
#: streams; and past a whole corpus, so that every stream is one block
BUDGETS = (1, 40, 400, 10 ** 6)


@pytest.fixture
def small_blocks(monkeypatch):
    """``budgets()``, which sets each leaf budget of BUDGETS in turn as it
    is iterated."""
    def budgets():
        for budget in BUDGETS:
            monkeypatch.setattr(cli, "JSON_BLOCK_LEAVES", budget)
            yield budget

    return budgets


@pytest.mark.parametrize("count", [0, 1, 128, 129])
def test_streamed_verdicts_match_one_dump(tmp_path, small_blocks, count):
    """Records written a block at a time read as one dump at every leaf
    budget, whatever the block edges: one row a block, a few rows, or one
    block a stream."""
    if not count:  # no input file has no rows
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit_verdicts(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool),
                               iter(()), "json")
        assert out.getvalue() == _reference({"results": [], "schema": cli.SCHEMA}) + "\n"
        return
    moments, _ = _corpus(6, count, 3)
    _matches(["check-moments", "--file", _write(tmp_path / "m.json", moments)],
             _moment_reference(moments, 1e-9), small_blocks)


def test_moment_writer_matches_one_dump_of_reference_records(tmp_path, small_blocks):
    moments, _ = _corpus(3, 168, 4)
    moments += EDGE_MOMENTS
    expect = _moment_reference(moments, 1e-9)
    out = _matches(["check-moments", "--file", _write(tmp_path / "m.json", moments)], expect,
                   small_blocks)
    assert {r["status"] for r in expect} == {"Member", "NonMember", "Indeterminate"}
    assert any(r["boundary"] for r in expect) and "-0.0" in out
    assert any(m.z0 == 0.0 for m in moments)
    assert len({(m.dims.n, m.dims.d) for m in moments}) > 8


@pytest.mark.parametrize("route", ["lmi", "ellipsoid", "exact-d1", "all"])
def test_poly_writer_matches_one_dump_of_reference_records(tmp_path, small_blocks, route):
    # every route, halfdeg's search included, on small n and d
    _, polys = (_corpus(4, 56, 2, n_max=5) if route == "all" else
                _corpus(4, 140, 1 if route == "exact-d1" else 3))
    polys += EDGE_POLYS
    expect = _poly_reference(polys, route, 1e-9)
    out = _matches(["check-poly", "--route", route,
                    "--file", _write(tmp_path / "q.json", polys)], expect, small_blocks)
    assert "-0.0" in out and len({q.dims.n for q in polys}) > 3
    if route != "ellipsoid":
        assert "-Infinity" in out if route != "exact-d1" else '"point"' in out
    if route in ("exact-d1", "all"):
        assert len({q.dims.n for q, r in zip(polys, expect)
                    if r["routes"].get("exact-d1", {}).get("status") == "NonMember"}) > 2
    if route == "all":
        assert any(len(r["all_statuses"]) == 2 for r in expect)


def test_route_all_writer_shows_a_disagreement(tmp_path):
    """At --tol 1e-15 rounding noise in the two SOS routes decides: this
    quadratic sits on the Sigma boundary, and lmi and ellipsoid disagree."""
    _, polys = _corpus(5, 6, 2)
    polys.append(SymmetricQuadratic(ProblemDims(3, 1), 3.62999999999994, [0.01], [-0.6]))
    expect = _poly_reference(polys, "all", 1e-15)
    _matches(["--tol", "1e-15", "check-poly", "--route", "all",
              "--file", _write(tmp_path / "q.json", polys)], expect)
    assert expect[-1]["disagreement"] and len(expect[-1]["all_statuses"]) == 2


def test_output_is_the_same_at_every_block_size(tmp_path, monkeypatch):
    """Blocks and written runs of records split a corpus differently at each
    leaf budget (JSON_BLOCK_LEAVES), and stdout is byte-identical at all of
    them: below one record (one row a block), at a few records, at a few
    dozen, and past the whole file (one block a stream).  The corpus:
    moments at d = 1..4 with every verdict and one d = 5 row (a stream of
    one row); d = 1 quadratics of mixed n with NonMember hypercube points,
    ±0.0 and ±1.0, under exact-d1 and --route all.  No kernel gives a
    non-finite witness value on valid input, so the facet kernel is wrapped
    to put NaN and ±inf into some of its residuals.  The exact-d1 output
    then holds ±1.0 (hypercube points) but no -0.0: the residuals left are
    those at facets k = 3 mod 4, and none of the corpus's is -0.0."""
    kernel = cli.p_n1_rows

    def p_n1_rows(*args):
        """The kernel's columns, the residual NaN, inf or -inf where its k is
        0, 1 or 2 mod 4."""
        k, residual, member, edge = kernel(*args)
        residual = np.where(k % 4 < 3, np.array([math.nan, math.inf, -math.inf])[k % 4 % 3],
                            residual)
        return k, residual, member, edge

    monkeypatch.setattr(cli, "p_n1_rows", p_n1_rows)
    moments, polys = _corpus(8, 60, 4, n_max=6)
    moments += EDGE_MOMENTS + [MomentVector(ProblemDims(3, 5), 1.0, [0.5, -1.0, 0.0, 1.0, -0.0],
                                            [1.0, -1.0, 0.0, 2.0, -0.0])]
    d1 = [q for q in polys if q.dims.d == 1] + EDGE_POLYS
    mixed = d1 + [q for q in polys if q.dims.d == 2][:4]
    argvs = [("check-moments", "--file", _write(tmp_path / "m.json", moments)),
             ("check-poly", "--route", "exact-d1", "--file", _write(tmp_path / "q1.json", d1)),
             ("check-poly", "--route", "all", "--file", _write(tmp_path / "q.json", mixed))]
    record_texts = cli._record_texts
    monkeypatch.setattr(cli, "_record_texts",
                        lambda *a: blocks.append(a) or record_texts(*a))
    budgets = (1, 9, 40, 400, 10 ** 6)
    for argv, rows in zip(argvs, (moments, d1, mixed)):
        outs, counts = {}, []
        for budget in budgets:
            monkeypatch.setattr(cli, "JSON_BLOCK_LEAVES", budget)
            blocks = []
            outs[budget] = _stdout(["--output", "json", *argv])
            counts.append(len(blocks))
        assert all(out == outs[10 ** 6] for out in outs.values()), argv
        # a row a block at budget 1, fewer blocks at each larger budget, and
        # one block a stream (each stream's tree once) past the whole file
        assert counts[0] == len(rows) and counts == sorted(counts, reverse=True), argv
        assert len({id(leaves) for _, leaves, _ in blocks}) == counts[-1] < counts[1], argv
        code, text = outs[10 ** 6]
        assert code != 64 and re.search(r"[^-\d.]1\.0\b", text) and "-1.0" in text, argv
        assert "-0.0" in text or "exact-d1" in argv, argv
        if argv[0] == "check-moments":
            assert all(v in text for v in cli.STATUS_VALUES)
            assert sum(m.dims.d == 5 for m in moments) == 1
        else:
            # the residuals' NaN, Infinity and -Infinity, spelled as the encoder spells them
            assert "NaN" in text and text.count("Infinity") > text.count("-Infinity") > 0, argv
            records = json.loads(text)["results"]
            assert len({q.dims.n for q, r in zip(rows, records, strict=True)
                        if r["routes"].get("exact-d1", {}).get("status") == "NonMember"}) > 2


def test_json_writer_cost_per_block(tmp_path, monkeypatch):
    """A cost tripwire for the JSON writer, on a 4096-row d = 1 lmi call:
    no stream is cut into more than ceil(rows x slots / JSON_BLOCK_LEAVES)
    blocks, no block holds more leaf texts than the budget unless it is one
    row, and each block formats its float leaves in one ``_floats`` call."""
    rng = np.random.default_rng(36)
    rows = [{"n": 16, "d": 1, "a0": float(a0), "a": [float(a)], "aa": [float(aa)]}
            for a0, a, aa in rng.normal(size=(4096, 3)) * [40.0, 1.0, 1.0]]
    path = tmp_path / "q.json"
    path.write_text(json.dumps(rows))
    blocks, floats = [], []
    record_texts, format_floats = cli._record_texts, cli._floats

    def counted(pieces, leaves, rows):
        texts = record_texts(pieces, leaves, rows)
        blocks.append((id(leaves), pieces.size - 1, texts.size))
        return texts

    monkeypatch.setattr(cli, "_record_texts", counted)
    monkeypatch.setattr(cli, "_floats", lambda v: floats.append(v.size) or format_floats(v))
    code, out = _stdout(["--output", "json", "check-poly", "--route", "lmi", "--file", str(path)])
    assert code in (0, 1) and len(json.loads(out)["results"]) == 4096
    budget = cli.JSON_BLOCK_LEAVES
    assert len(floats) == len(blocks)
    assert all(count * slots <= budget or count == 1 for _, slots, count in blocks)
    for stream in {key for key, _, _ in blocks}:
        cut = [(slots, count) for key, slots, count in blocks if key == stream]
        assert len(cut) <= math.ceil(sum(count for _, count in cut) * cut[0][0] / budget)


def test_non_finite_values_are_written_as_the_encoder_writes_them():
    """Non-finite values are written as NaN/Infinity, as the encoder writes
    them, in records and in witnesses converted by ``_witness_jsonable``
    alike.  Finite values are their ``float.__repr__``, ±0.0 and ±1.0
    (taken from a table) and the floats next to them too, in arrays of any
    shape and mix of the two."""
    v = np.array([[1.5, -0.0, math.nan], [math.inf, -math.inf, 1e-310]])
    assert cli._floats(v).tolist() == [["1.5", "-0.0", "NaN"], ["Infinity", "-Infinity", "1e-310"]]
    assert [json.dumps(cli._witness_jsonable(x)) for x in v.ravel().tolist()] == [
        "1.5", "-0.0", "NaN", "Infinity", "-Infinity", "1e-310"]
    values = [0.0, -0.0, 1.0, -1.0, 1.0000000000000002, -0.9999999999999999, 5e-324,
              math.nan, math.inf, -math.inf]
    arrays = [values, np.reshape(values, (2, 5)), [], np.zeros((0, 3)),
              [0.0, -1.0, -0.0, 1.0], [[1.0, -0.0], [0.0, -1.0]],
              [1.5, 5e-324, math.nan], [[-2.5, math.inf], [1e300, -1e-300]]]
    for v in arrays:
        got = cli._floats(v)
        flat = np.ravel(v).tolist()
        assert got.shape == np.shape(v) and got.dtype == object
        assert got.ravel().tolist() == list(map(json.dumps, flat))
        assert [t for t, x in zip(got.ravel().tolist(), flat) if math.isfinite(x)] == [
            float.__repr__(x) for x in flat if math.isfinite(x)]


def test_float_texts_are_the_repr_of_every_finite_double():
    """``_floats`` writes every finite double as ``float.__repr__`` does,
    including the values whose text it takes from orjson (1e-4 <= |v| <
    1e16, except ±1): a guard against an orjson that spells them otherwise.
    The corpus: random bit patterns, log-uniform values over that band, the
    band's edges, each power of ten in it and their neighbours, integers up
    to 2^53, subnormals, ±0 and ±1, mixed in one column."""
    rng = np.random.default_rng(33)
    edges = np.array([float(f"1e{k}") for k in range(-4, 17)])
    ints = rng.integers(0, 2 ** 53, size=100_000, endpoint=True).astype(float)
    subnormal = rng.integers(1, 2 ** 52, size=10_000, dtype=np.uint64).view(float)
    magnitudes = np.concatenate([
        10.0 ** rng.uniform(-4, 16, size=10 ** 6),
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
        ints, np.arange(1001.0), [2.0 ** 53 - 1, 2.0 ** 53],
        subnormal, [5e-324, np.nextafter(2.2250738585072014e-308, 0)], [0.0, 1.0]])
    v = np.concatenate([np.frombuffer(rng.bytes(8 * 10 ** 6), dtype=float),
                        magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.size),
                        -edges, -subnormal[:100], [-0.0, -1.0]])
    v = rng.permutation(v[np.isfinite(v)])
    expected = list(map(float.__repr__, v.tolist()))
    assert cli._floats(v).tolist() == expected
    got = cli._floats(v[:6000].reshape(100, 60))
    assert got.shape == (100, 60) and got.ravel().tolist() == expected[:6000]
    for x in (2.5, 1e-5, 1e16, 0.1, -1.0):
        got = cli._floats(np.float64(x))
        assert got.shape == () and got.item() == repr(x)
    assert cli._floats([]).shape == (0,)
