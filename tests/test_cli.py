import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from momentcert import cli
from momentcert.cli import main
from momentcert.core import (
    MOMENT_FIELDS,
    POLY_FIELDS,
    MomentVector,
    ProblemDims,
    SymmetricQuadratic,
    magnitude_bound,
)
from momentcert.moment_cone import classify
from momentcert.spin import ghz_state

#: a 400-digit integer literal: beyond every float
BIG = int("1" * 400)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parsed_rows(batches) -> list[dict]:
    """The moment rows of parsed RowBatches in input order (their columns
    scattered by ``index``), each as the dict ``to_json_dict`` gives, n as a
    float."""
    rows = [None] * sum(b.index.size for b in batches)
    for b in batches:
        for i, n, z0, z, zz in zip(b.index.tolist(), b.n.tolist(), b.x0.tolist(),
                                   b.x.tolist(), b.xx.tolist()):
            rows[i] = {"n": n, "d": b.d, "z0": z0, "z": z, "zz": zz}
    return rows


def test_check_moments_inline_member(capsys):
    code, out, _ = run(capsys, "check-moments", "--n", "4", "--d", "1",
                       "--z0", "1.0", "--z", "0", "--zz", "0")
    assert code == 0
    assert "Member" in out


def test_check_moments_inline_nonmember(capsys):
    code, out, _ = run(capsys, "--output", "json", "check-moments",
                       "--n", "4", "--d", "1", "--z0", "1.0",
                       "--z", "8", "--zz", "0")
    assert code == 1
    obj = json.loads(out)
    assert obj["schema"] == "2"
    assert obj["results"][0]["status"] == "NonMember"
    # the separating polynomial rides along in the witness
    assert "separating_polynomial" in obj["results"][0]["witness"]


def test_check_moments_indeterminate_exit(capsys):
    # boundary atom: passes necessary, fails sufficient
    code, _, _ = run(capsys, "check-moments", "--n", "2", "--d", "1",
                     "--z0", "1.0", "--z", "2", "--zz", "2")
    assert code == 2


def test_check_moments_csv_file(tmp_path, capsys):
    f = tmp_path / "rows.csv"
    f.write_text("n,d,z0,z1,z11\n4,1,1.0,0.0,0.0\n4,1,1.0,8.0,0.0\n")
    code, out, _ = run(capsys, "--output", "csv", "check-moments",
                       "--file", str(f))
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "index,status,boundary"
    assert len(lines) == 3


def test_check_moments_csv_error_reports_line(tmp_path, capsys):
    f = tmp_path / "rows.csv"
    f.write_text("n,d,z0,z1,z11\n4,1,1.0,0.0,0.0\n4,1,oops,8.0,0.0\n")
    code, _, err = run(capsys, "check-moments", "--file", str(f))
    assert code == 64
    assert "line 3" in err


def test_check_moments_missing_file(capsys):
    code, _, err = run(capsys, "check-moments", "--file", "/nonexistent.csv")
    assert code == 64 and "error" in err


def test_check_poly_routes_agree(tmp_path, capsys):
    f = tmp_path / "q.json"
    f.write_text(json.dumps({"n": 4, "d": 1, "a0": 4.0, "a": [0.0], "aa": [1.0]}))
    code, out, _ = run(capsys, "--output", "json", "check-poly",
                       "--file", str(f), "--route", "all")
    assert code == 0
    obj = json.loads(out)
    r = obj["results"][0]
    assert not r["disagreement"]
    assert set(r["routes"]) == {"lmi", "ellipsoid", "exact-d1", "halfdeg"}


def test_check_poly_inline_nonmember(capsys):
    code, out, _ = run(capsys, "check-poly", "--n", "4", "--d", "2",
                       "--a0", "0.0", "--a", "0 0", "--aa", "1 0")
    assert code == 1


def test_check_poly_exact_d1_requires_d1(capsys):
    code, _, err = run(capsys, "check-poly", "--n", "4", "--d", "2",
                       "--a0", "1.0", "--route", "exact-d1")
    assert code == 64 and "d=1" in err


def test_spin_preset_dicke_detected(capsys):
    code, out, _ = run(capsys, "--output", "json", "spin",
                       "--preset", "dicke", "--n", "4", "--m", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "EntanglementDetected"
    assert len(obj["necessary"]) == 3 and "sufficient" not in obj


def test_spin_preset_coherent_text(capsys):
    for n in ("6", "512"):
        code, out, _ = run(capsys, "spin", "--preset", "coherent", "--n", n,
                           "--theta", "0.7")
        assert code == 0
        assert "verdict: Inconclusive" in out
        # the verdict line, then the three squeezing rows, none violated
        lines = out.splitlines()
        assert len(lines) == 4 and all(ln.startswith("  necessary squeezing-")
                                       for ln in lines[1:])
        assert "VIOLATED" not in out


def test_spin_state_file(tmp_path, capsys):
    f = tmp_path / "state.json"
    json.dump(ghz_state(2).to_json_dict(), f.open("w"))
    code, out, _ = run(capsys, "spin", "--state", str(f))
    assert code == 0 and "EntanglementDetected" in out


def test_spin_needs_input(capsys):
    code, _, err = run(capsys, "spin")
    assert code == 64


@pytest.mark.parametrize("argv", [
    ["--preset", "coherent", "--n", "70", "--theta", "0.9"],
    ["--preset", "coherent", "--n", "512", "--theta", "2.2", "--phi", "1.3"],
    ["--preset", "mixed", "--n", "100"],
    ["--preset", "mixed", "--n", "512", "--components", "4"],
])
def test_spin_large_coherent_presets(capsys, argv):
    """C(n, k) exceeds int64 from n = 68 on; coherent states and their
    mixtures are never detected."""
    code, out, _ = run(capsys, "spin", *argv)
    assert code == 0
    assert out.startswith("verdict: ") and "EntanglementDetected" not in out


def test_spin_state_file_non_finite(tmp_path, capsys):
    """Refused also off diagonals 0-2, which the moments never read."""
    for value, pos in ((math.nan, (0, 4)), (math.inf, (0, 4)), (math.nan, (1, 1)),
                       (-math.inf, (2, 1))):
        rho = np.eye(5) / 5.0
        rho[pos] = value
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"n": 4, "re": rho.tolist(), "im": np.zeros((5, 5)).tolist()}))
        code, _, err = run(capsys, "spin", "--state", str(f))
        assert code == 64
        assert "invalid state" in err and "non-finite" in err


@pytest.mark.parametrize("text", ["[1, 2]", '"rho"', "3",
                                  '{"n": null, "re": [[1.0]], "im": [[0.0]]}',
                                  '{"n": Infinity, "re": [[1.0]], "im": [[0.0]]}',
                                  '{"n": 1, "re": {"a": 1}, "im": [[0.0]]}',
                                  '{"n": 1.7, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
                                  '{"n": true, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
                                  '{"n": "1", "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}'])
def test_spin_state_file_malformed(tmp_path, capsys, text):
    f = tmp_path / "state.json"
    f.write_text(text)
    code, _, err = run(capsys, "spin", "--state", str(f))
    assert code == 64 and "invalid state" in err


def test_input_files_closed(tmp_path, capsys):
    state, rows = tmp_path / "state.json", tmp_path / "rows.csv"
    state.write_text(json.dumps(ghz_state(2).to_json_dict()))
    rows.write_text("n,d,z0,z1,z11\n4,1,1,0,0\n")
    for argv in (["spin", "--state", str(state)], ["check-moments", "--file", str(rows)]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run(capsys, *argv)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)], argv


def test_slice_limit_cone_contour(capsys):
    plane = json.dumps({"base": [1.0, 0.0, 0.0], "dirs": [[0, 1, 0], [0, 0, 1]],
                        "lo": [-2, -2], "hi": [2, 2]})
    code, out, _ = run(capsys, "--output", "json", "slice", "--cone", "limit",
                       "--plane", plane, "--n", "8", "--d", "1", "--grid", "15")
    assert code == 0
    obj = json.loads(out)
    grid = np.array(obj["membership"])
    assert grid.shape == (15, 15)
    assert 0 < grid.sum() < grid.size  # nontrivial section
    assert obj["contour"]  # boundary points found
    # contour points sit on the membership boundary to 1e-6
    base = np.array([1.0, 0.0, 0.0])
    dirs = np.array([[0, 1, 0], [0, 0, 1]], dtype=float)
    from reference_forms import limit_cone_d1
    for p in obj["contour"][:10]:
        v = base + p[0] * dirs[0] + p[1] * dirs[1]
        inner = limit_cone_d1(tuple(v), tol=1e-9)
        # a tiny outward step must exit; a tiny inward step must stay
        assert isinstance(inner.is_member, bool)


def test_slice_p_requires_d1(capsys):
    plane = json.dumps({"base": [1.0, 0, 0, 0, 0], "dirs": [[0, 1, 0, 0, 0],
                                                            [0, 0, 1, 0, 0]]})
    code, _, err = run(capsys, "slice", "--cone", "P", "--plane", plane,
                       "--n", "4", "--d", "2")
    assert code == 64 and "d=1" in err


def test_slice_bad_plane(capsys):
    code, _, err = run(capsys, "slice", "--cone", "Sigma", "--plane", "{bad",
                       "--n", "4", "--d", "1")
    assert code == 64
    plane = json.dumps({"base": [1.0, float("nan"), 0.0], "dirs": [[0, 1, 0], [0, 0, 1]]})
    for cone in ("P", "Sigma", "C-nec", "limit"):
        code, out, err = run(capsys, "slice", "--cone", cone, "--plane", plane,
                             "--n", "4", "--d", "1")
        assert (code, out, err) == (64, "", "error: plane point is not finite\n")
    for bound in ({"lo": [0]}, {"hi": 7}, {"lo": [[0, 1]]}):
        plane = json.dumps({"base": [1.0, 0.0, 0.0], "dirs": [[0, 1, 0], [0, 0, 1]], **bound})
        assert run(capsys, "slice", "--cone", "Sigma", "--plane", plane, "--n", "4", "--d", "1"
                   ) == (64, "", "error: invalid plane spec: lo and hi must be two numbers each\n")


def test_slice_grid_matches_scalar_api(capsys):
    from reference_forms import limit_cone_d1, sigma_prime_membership

    from momentcert.core import MomentVector, ProblemDims, SymmetricQuadratic
    from momentcert.exact_d1 import p_n1_membership
    from momentcert.moment_cone import necessary_condition, sufficient_condition
    from momentcert.sos_cone import sigma_membership_lmi
    dims = ProblemDims(5, 1)
    scalar = {
        "P": lambda v: p_n1_membership(SymmetricQuadratic(dims, *v)).is_member,
        "Sigma": lambda v: sigma_membership_lmi(SymmetricQuadratic(dims, *v))[0].is_member,
        "SigmaPrime": lambda v: sigma_prime_membership(SymmetricQuadratic(dims, *v)).is_member,
        "C-nec": lambda v: necessary_condition(MomentVector(dims, *v))[0],
        "C-suf": lambda v: sufficient_condition(MomentVector(dims, *v))[0],
        "limit": lambda v: limit_cone_d1(v).is_member,
    }
    for cone, member in scalar.items():
        s = 5.0 if cone.startswith("C") else 0.2
        base, dirs = np.array([1.0, 0.0, 0.0]), np.array([[0, s, 0], [0, 0, s]])
        plane = json.dumps({"base": base.tolist(), "dirs": dirs.tolist(),
                            "lo": [-2, -2], "hi": [2, 2]})
        code, out, _ = run(capsys, "--output", "json", "slice", "--cone", cone,
                           "--plane", plane, "--n", "5", "--d", "1", "--grid", "9")
        obj = json.loads(out)
        expect = [[int(member(base + x * dirs[0] + y * dirs[1])) for y in obj["y"]]
                  for x in obj["x"]]
        assert code == 0 and obj["membership"] == expect, cone
        assert 0 < np.sum(expect) < 81 and obj["contour"], cone


def test_slice_refuses_what_certify_refuses(capsys):
    """The C-nec cone is scale-invariant, so the plane with base (S, S, S)
    and directions S e_1, S e_2 has one grid at every S below the magnitude
    bound.  Past it (the corner at (3, 3) holds 4S) and at n >= 2^53, slice
    refuses as check-moments and check-poly refuse that corner's row."""
    def plane(s):
        return json.dumps({"base": [s] * 3, "dirs": [[0, s, 0], [0, 0, s]],
                           "lo": [-3, -3], "hi": [3, 3]})

    def corner(command, n, s):
        fields = ("--z0", "--z", "--zz") if command == "check-moments" else ("--a0", "--a", "--aa")
        return run(capsys, command, "--n", str(n), "--d", "1",
                   *itertools.chain(*zip(fields, (repr(s), repr(4 * s), repr(4 * s)))))

    grids = set()
    for s in (1.0, 1e150):
        code, out, _ = run(capsys, "--output", "json", "slice", "--cone", "C-nec", "--n", "4",
                           "--d", "1", "--grid", "11", "--plane", plane(s))
        grids.add((code, json.dumps(json.loads(out)["membership"])))
    assert len(grids) == 1 and np.sum(json.loads(grids.pop()[1])) == 79
    for cone, command, n, s in (("C-nec", "check-moments", 4, 1e155),
                                ("C-nec", "check-moments", 4, 1e160),
                                ("Sigma", "check-poly", 4, 1e153),
                                ("C-suf", "check-moments", 2**60, 1.0),
                                ("P", "check-poly", 2**53, 1.0)):
        want = corner(command, n, s)
        assert want[:2] == (64, "")
        assert run(capsys, "slice", "--cone", cone, "--n", str(n), "--d", "1", "--grid", "11",
                   "--plane", plane(s)) == want, (cone, n, s)
    assert run(capsys, "slice", "--cone", "Sigma", "--n", str(BIG), "--d", "1",
               "--plane", plane(1.0)) == (64, "", "error: n must be an integer < 2^53\n")


def test_fuzz_suite_runs(capsys, monkeypatch):
    """The JSON report of every suite is the suite's at --seed; with LEMMA_TOL
    or HALFDEG_TOL < 0 every lemma target or halfdeg instance is a
    violation, and each record shows the seed."""
    from momentcert import fuzz
    iters = {"halfdeg": 2, "lemma": 50}  # a halfdeg instance runs a brute-force search
    cases = [(suite, iters.get(suite, 200), None) for suite in fuzz.SUITES]
    cases += [("lemma", 50, "LEMMA_TOL"), ("halfdeg", 2, "HALFDEG_TOL")]
    for suite, count, negative in cases:
        with monkeypatch.context() as mp:
            if negative:
                mp.setattr(fuzz, negative, -1.0)
            code, out, _ = run(capsys, "--seed", "106", "--output", "json", "fuzz",
                               "--suite", suite, "--iters", str(count))
            want, obj = fuzz.SUITES[suite](count, seed=106), json.loads(out)
        assert (code, obj["iterations"], obj["passed"], obj["violations"]) == (
            int(bool(negative)), want.iterations, not negative, want.violations), suite
        if negative:
            assert [v["seed"] for v in want.violations] == [106] * count, suite


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    """The mixed preset draws its components from --seed, the one source of
    the run seed: an MC_SEED in the environment is not read."""
    monkeypatch.setenv("MC_SEED", "8")

    def moments(seed):
        code, out, _ = run(capsys, "--seed", seed, "--output", "json", "spin",
                           "--preset", "mixed", "--n", "4")
        assert code == 0
        return json.loads(out)["moments"]

    out1, out2, out3 = moments("7"), moments("8"), moments("7")
    assert out1 != out2 and out1 == out3


def test_bad_tol_rejected(capsys):
    # nan and inf used to pass the tol > 0 check; nan turned Member into NonMember
    for tol in ("-1", "nan", "inf"):
        code, _, err = run(capsys, "--tol", tol, "check-moments", "--n", "4",
                           "--d", "1", "--z0", "1", "--z", "0", "--zz", "0")
        assert code == 64 and "tol" in err, tol


def test_empty_json_record_list_rejected(tmp_path, capsys):
    f = tmp_path / "rows.json"
    f.write_text("[]")
    for command in ("check-moments", "check-poly"):
        code, out, err = run(capsys, command, "--file", str(f))
        assert code == 64 and out == "" and "no records" in err, command


def test_witnesses_converted_for_json_output_only(tmp_path, capsys, monkeypatch):
    """Text and CSV come from the verdict columns: no witness column, record
    part and record text is made for them.  JSON is written from the
    columns, with no witness object converted."""
    import momentcert.cli as cli
    calls = []
    convert, witness, texts, emit = (cli._witness_jsonable, cli.witness_rows, cli._record_texts,
                                     cli._emit_verdicts)
    for name in ("_moment_texts", "_poly_texts"):
        monkeypatch.setattr(cli, name, lambda *a, parts=getattr(cli, name):
                            calls.append("parts") or parts(*a))
    monkeypatch.setattr(cli, "_witness_jsonable",
                        lambda obj: calls.append(obj) or convert(obj))
    monkeypatch.setattr(cli, "witness_rows",
                        lambda *a: calls.append("witness_rows") or witness(*a))
    monkeypatch.setattr(cli, "_record_texts", lambda *a: calls.append("record") or texts(*a))
    monkeypatch.setattr(cli, "_emit_verdicts", lambda status, boundary, runs, cfg: emit(
        status, boundary, (calls.append("records") or r for r in runs), cfg))
    moments = tmp_path / "rows.csv"
    moments.write_text("n,d,z0,z1,z11\n4,1,1.0,0.0,0.0\n4,1,1.0,8.0,0.0\n")
    poly = tmp_path / "q.json"
    poly.write_text(json.dumps([{"n": 4, "d": 1, "a0": 4.0, "a": [0.0], "aa": [1.0]},
                                {"n": 3, "d": 1, "a0": 3.0, "a": [0.0], "aa": [-1.0]}]))
    argvs = (("check-moments", "--file", str(moments)),
             ("check-poly", "--route", "exact-d1", "--file", str(poly)),
             ("check-poly", "--route", "all", "--file", str(poly)))
    for output in ("text", "csv"):
        for argv in argvs:
            run(capsys, "--output", output, *argv)
    assert calls == []
    code, out, _ = run(capsys, "--output", "json", *argvs[0])
    assert calls.count("witness_rows") == 1
    assert {"parts", "record", "records"} < set(map(str, calls))
    assert "separating_polynomial" in out
    calls.clear()
    code, out, _ = run(capsys, "--output", "json", *argvs[1])
    assert {"parts", "record", "records"} == set(map(str, calls))
    assert json.loads(out)["results"][1]["routes"]["exact-d1"]["witness"]["k"] == 0


def test_input_records_are_never_built(tmp_path, capsys, monkeypatch):
    """No output format converts an input row back to a record: a JSON
    record holds no copy of its row, which the parser alone reads."""
    from momentcert.core import MomentVector, SymmetricQuadratic
    calls = []
    for cls in (MomentVector, SymmetricQuadratic):
        convert = cls.to_json_dict
        monkeypatch.setattr(cls, "to_json_dict",
                            lambda self, convert=convert: calls.append(self) or convert(self))
    moments = tmp_path / "rows.csv"
    moments.write_text("n,d,z0,z1,z11\n4,1,1.0,0.0,0.0\n4,1,1.0,8.0,0.0\n")
    poly = tmp_path / "q.json"
    poly.write_text(json.dumps([{"n": 4, "d": 1, "a0": 4.0, "a": [0.0], "aa": [1.0]},
                                {"n": 3, "d": 1, "a0": 3.0, "a": [0.0], "aa": [-1.0]}]))
    for output in ("text", "csv", "json"):
        for argv in (("check-moments", "--file", str(moments)),
                     ("check-poly", "--file", str(poly)),
                     ("check-poly", "--route", "all", "--file", str(poly))):
            run(capsys, "--output", output, *argv)
    assert calls == []
    assert parsed_rows(cli._load_moment_rows(str(moments)))[1] == {
        "n": 4, "d": 1, "z0": 1.0, "z": [8.0], "zz": [0.0]}


def _mixed_rows(seed: int, count: int, n_max: int = 20, d_max: int = 4):
    """Moment vectors and quadratics with (n, d) varying row by row."""
    from momentcert.core import MomentVector, ProblemDims, SymmetricQuadratic
    rng = np.random.default_rng(seed)
    moments, polys = [], []
    for i in range(count):
        n, d = int(rng.integers(2, n_max)), int(rng.integers(1, d_max + 1))
        dims = ProblemDims(n, d)
        f = [1e-3, 0.3, 3.0][i % 3]
        moments.append(MomentVector(dims, 0.0 if i == 7 else 1.0,
                                    f * n * rng.normal(size=d), f * n * rng.normal(size=d)))
        polys.append(SymmetricQuadratic(dims, float(rng.normal()) + (n * n if i % 2 else 0.0),
                                        0.3 * rng.normal(size=d), rng.normal(size=d)))
    return moments, polys


def _num(x):
    return repr(float(x))


def test_mixed_file_rows_keep_their_order(tmp_path, capsys):
    from momentcert.moment_cone import classify
    from momentcert.sos_cone import ellipsoid_quadratic_min, sigma_membership_lmi
    moments, polys = _mixed_rows(11, 40)
    csv_file = tmp_path / "m.csv"
    csv_file.write_text("n,d,z0,z,zz\n" + "".join(
        ",".join([str(m.dims.n), str(m.dims.d), _num(m.z0)] + [_num(v) for v in [*m.z, *m.zz]])
        + "\n" for m in moments))
    json_file = tmp_path / "m.json"
    json_file.write_text(json.dumps([m.to_json_dict() for m in moments]))
    poly_file = tmp_path / "q.json"
    poly_file.write_text(json.dumps([q.to_json_dict() for q in polys]))
    expect = [classify(m) for m in moments]
    for path in (csv_file, json_file):
        _, text, _ = run(capsys, "check-moments", "--file", str(path))
        assert text.splitlines() == [
            f"[{i}] {v.status.value}{' (boundary)' if v.boundary else ''}"
            for i, v in enumerate(expect)]
        _, out, _ = run(capsys, "--output", "csv", "check-moments", "--file", str(path))
        assert out.splitlines()[1:] == [f"{i},{v.status.value},{v.boundary}"
                                        for i, v in enumerate(expect)]
        _, out, _ = run(capsys, "--output", "json", "check-moments", "--file", str(path))
        results = json.loads(out)["results"]
        assert [r["status"] for r in results] == [v.status.value for v in expect]
        assert parsed_rows(cli._load_moment_rows(str(path))) == [
            json.loads(json.dumps(m.to_json_dict())) for m in moments]
    assert {v.status.value for v in expect} == {"Member", "NonMember", "Indeterminate"}
    lmi = [sigma_membership_lmi(q) for q in polys]
    code, out, _ = run(capsys, "--output", "json", "check-poly", "--file", str(poly_file))
    results = json.loads(out)["results"]
    assert [r["status"] for r in results] == [v.status.value for v, _ in lmi]
    assert [r["routes"]["lmi"]["c"] for r in results] == [f.c for _, f in lmi]
    assert code == 1 and {v.status.value for v, _ in lmi} == {"Member", "NonMember"}
    # the ellipsoid route's batch columns are the one-row views, to the bit
    _, out, _ = run(capsys, "--output", "json", "check-poly", "--route", "ellipsoid",
                    "--file", str(poly_file))
    routes = [r["routes"]["ellipsoid"] for r in json.loads(out)["results"]]
    views = [ellipsoid_quadratic_min(q) for q in polys]
    assert repr([(r["min_value"], r["x"], r["y"]) for r in routes]) == \
        repr([(v, p.x.tolist(), p.y.tolist()) for v, p in views])


def test_route_all_on_mixed_d_file(tmp_path, capsys):
    from momentcert.sos_cone import sigma_membership_lmi
    _, polys = _mixed_rows(12, 8, n_max=6, d_max=3)  # small: halfdeg searches
    f = tmp_path / "q.json"
    f.write_text(json.dumps([q.to_json_dict() for q in polys]))
    code, out, _ = run(capsys, "--output", "json", "check-poly", "--route", "all",
                       "--file", str(f))
    results = json.loads(out)["results"]
    assert len(results) == len(polys)
    for q, r in zip(polys, results):
        routes = {"lmi", "ellipsoid", "halfdeg"} | ({"exact-d1"} if q.dims.d == 1 else set())
        assert set(r["routes"]) == routes
        assert r["status"] == r["routes"]["lmi"]["status"] == \
            sigma_membership_lmi(q)[0].status.value
    assert any(q.dims.d == 1 for q in polys) and any(q.dims.d > 1 for q in polys)
    _, text, _ = run(capsys, "check-poly", "--route", "all", "--file", str(f))
    assert text.splitlines() == [f"[{i}] {r['status']}" for i, r in enumerate(results)]
    assert code == (1 if any(r["status"] == "NonMember" for r in results) else 0)


def test_sigma_routes_share_one_sigma_rows_call_per_d_group(tmp_path, capsys, monkeypatch):
    """On a mixed-d file, lmi and ellipsoid (alone or within --route all)
    read one ``sigma_rows`` call per d-group, on that group's rows; exact-d1
    and halfdeg make none.  The ellipsoid verdicts equal the minimum decided
    at the tolerance ``scaled_tolerance(tol, abs_scale, n)``."""
    from momentcert.core import DEFAULT_TOL, abs_scale, scaled_tolerance
    from momentcert.sos_cone import sigma_rows

    _, polys = _mixed_rows(15, 9, n_max=6, d_max=3)
    f = tmp_path / "q.json"
    f.write_text(json.dumps([q.to_json_dict() for q in polys]))
    groups = [sum(q.dims.d == d for q in polys) for d in sorted({q.dims.d for q in polys})]
    assert len(groups) == 3
    calls = []
    monkeypatch.setattr(cli, "sigma_rows", lambda a0, *rest: calls.append(a0.size)
                        or sigma_rows(a0, *rest))
    for route, want in (("all", groups), ("lmi", groups), ("ellipsoid", groups),
                        ("halfdeg", [])):
        calls.clear()
        code, out, _ = run(capsys, "--output", "json", "check-poly", "--route", route,
                           "--file", str(f))
        assert code in (0, 1) and calls == want, route
    _, out, _ = run(capsys, "--output", "json", "check-poly", "--route", "all", "--file", str(f))
    for q, r in zip(polys, json.loads(out)["results"], strict=True):
        t = scaled_tolerance(DEFAULT_TOL, abs_scale(q.a0, q.a, q.aa), q.dims.n)
        ellipsoid = r["routes"]["ellipsoid"]
        assert ellipsoid["status"] == ("Member" if ellipsoid["min_value"] >= -t else "NonMember")
        assert ellipsoid["boundary"] == (-t <= ellipsoid["min_value"] < t)


def test_exact_d1_route_makes_one_p_n1_rows_call_per_d_group(tmp_path, capsys, monkeypatch):
    """The exact-d1 route reads one ``p_n1_rows`` call per d-group, on all of
    the group's rows whatever their n: alone on a d=1 file of mixed n, and
    within --route all on a mixed-d file, where it runs on the d=1 group
    only."""
    from momentcert.exact_d1 import p_n1_rows

    _, polys = _mixed_rows(25, 40, n_max=9, d_max=2)
    d1 = [q for q in polys if q.dims.d == 1]
    assert len({q.dims.n for q in d1}) > 3
    calls = []
    monkeypatch.setattr(cli, "p_n1_rows", lambda a0, *rest: calls.append(a0.size)
                        or p_n1_rows(a0, *rest))
    for route, rows in (("exact-d1", d1), ("all", polys)):
        f = tmp_path / f"{route}.json"
        f.write_text(json.dumps([q.to_json_dict() for q in rows]))
        calls.clear()
        code, _, _ = run(capsys, "--output", "json", "check-poly", "--route", route,
                         "--file", str(f))
        assert code in (0, 1) and calls == [len(d1)], route


@pytest.mark.parametrize("route", ["lmi", "ellipsoid", "exact-d1", "all"])
def test_check_poly_text_and_csv_show_the_primary_route_boundary(capsys, route):
    argv = ("check-poly", "--route", route, "--n", "4", "--d", "1",
            "--a0", "0", "--a", "0", "--aa", "0")  # Q = 0: on the boundary of every cone
    code, out, _ = run(capsys, "--output", "json", *argv)
    assert json.loads(out)["results"][0]["routes"]["lmi" if route == "all" else route][
        "boundary"] is True
    assert run(capsys, *argv) == (code, "[0] Member (boundary)\n", "")
    assert run(capsys, "--output", "csv", *argv) == (
        code, "index,status,boundary\r\n0,Member,True\r\n", "")


#: the leaf budget (JSON_BLOCK_LEAVES) of the block-edge tests: small, so
#: that a few dozen rows span several blocks
JSON_BLOCK_LEAVES = 40


def _with_boundary_rows(moments, polys, every: int = 29):
    """Every ``every``-th row replaced by a boundary row of its (n, d): the
    moment vector z0 = 1, z = 0, sum zz = (n-1)^2, whose sufficient residual
    is 0, and Q = 0."""
    from momentcert.core import MomentVector, SymmetricQuadratic
    for i in range(0, len(moments), every):
        dims = moments[i].dims
        moments[i] = MomentVector(dims, 1.0, np.zeros(dims.d),
                                  np.full(dims.d, (dims.n - 1) ** 2 / dims.d))
        polys[i] = SymmetricQuadratic(polys[i].dims, 0.0, np.zeros(polys[i].dims.d),
                                      np.zeros(polys[i].dims.d))
    return moments, polys


@pytest.mark.parametrize("case", ["moments-csv", "moments-json", "lmi", "ellipsoid",
                                  "exact-d1", "halfdeg", "all"])
def test_text_and_csv_agree_with_json_on_a_mixed_corpus(tmp_path, capsys, monkeypatch, case):
    """Over more than one JSON block of mixed (n, d) rows, the text lines and
    CSV rows carry the status and boundary that JSON gives (for check-poly
    those of the primary route), and all three formats exit alike."""
    import momentcert.cli as cli
    monkeypatch.setattr(cli, "JSON_BLOCK_LEAVES", JSON_BLOCK_LEAVES)
    count = 25 if case in ("halfdeg", "all") else 137
    small = {"exact-d1": {"d_max": 1}, "halfdeg": {"n_max": 4, "d_max": 2},
             "all": {"n_max": 4, "d_max": 2}}.get(case, {})  # halfdeg searches row by row
    moments, polys = _with_boundary_rows(*_mixed_rows(16, count, **small))
    f = tmp_path / "rows.csv"
    if case == "moments-csv":
        f.write_text("n,d,z0,z,zz\n" + "".join(
            ",".join([str(m.dims.n), str(m.dims.d), _num(m.z0)] + [_num(v) for v in [*m.z, *m.zz]])
            + "\n" for m in moments))
        argv = ("check-moments", "--file", str(f))
    elif case == "moments-json":
        f.write_text(json.dumps([m.to_json_dict() for m in moments]))
        argv = ("check-moments", "--file", str(f))
    else:
        f.write_text(json.dumps([q.to_json_dict() for q in polys]))
        argv = ("check-poly", "--route", case, "--file", str(f))
    code, out, _ = run(capsys, "--output", "json", *argv)
    results = json.loads(out)["results"]
    if case.startswith("moments"):
        verdicts = [(r["status"], r["boundary"]) for r in results]
    else:
        primary = "lmi" if case == "all" else case
        verdicts = [(r["status"], r["routes"][primary]["boundary"]) for r in results]
    assert len(verdicts) == count and any(e for _, e in verdicts)
    assert len({v for v, _ in verdicts}) > 1
    text_code, text, _ = run(capsys, *argv)
    assert text.splitlines() == [f"[{i}] {v}{' (boundary)' if e else ''}"
                                 for i, (v, e) in enumerate(verdicts)]
    csv_code, out, _ = run(capsys, "--output", "csv", *argv)
    assert out.splitlines() == ["index,status,boundary"] + [
        f"{i},{v},{e}" for i, (v, e) in enumerate(verdicts)]
    assert code == text_code == csv_code != 64


def test_bad_row_in_mixed_csv_reports_its_line(tmp_path, capsys):
    good = "n,d,z0,z,zz\n4,1,1.0,0.5,0.2\n7,2,1.0,0.1,0.2,0.3,0.4\n\n3,1,2.0,0.0,0.0\n"
    for bad, message in (
            ("5,2,1.0,oops,0.0,0.0,0.0", "line 6: could not convert string to float: 'oops'"),
            ("5,2,1.0,0.0,0.0,0.0", "line 6: expected 5 values after n,d"),
            ("1,1,1.0,0.0,0.0", "line 6: n must be an integer >= 2, got 1"),
            ("5,0,1.0", "line 6: d must be an integer >= 1, got 0"),
            ("5,1,1.0,inf,0.0", "line 6: z contains non-finite entries"),
            ("5", "line 6: list index out of range"),
            (f"5,1,{BIG},0.0,0.0", "line 6: z0 must be finite"),
            (f"5,1,1.0,{BIG},0.0", "line 6: z contains non-finite entries"),
            (f"{BIG},1,1.0,0.0,0.0", "line 6: n must be an integer < 2^53"),
            (f"{2**53},1,1.0,0.0,0.0", "line 6: n must be an integer < 2^53")):
        f = tmp_path / "rows.csv"
        f.write_text(good + bad + "\n4,1,1.0,0.0,0.0\n9,1,1.0,x,0.0\n")
        code, out, err = run(capsys, "check-moments", "--file", str(f))
        assert (code, out, err) == (64, "", f"error: {f}: {message}\n"), bad


def test_bad_json_record_reports_like_scalar_parser(tmp_path, capsys):
    good = {"n": 4, "d": 2, "a0": 1.0, "a": [0.0, 0.1], "aa": [0.2, 0.3]}
    for bad, message in (
            ({**good, "aa": [0.2]}, "bad polynomial record: aa must have length 2, got (1,)"),
            ({k: v for k, v in good.items() if k != "a0"}, "bad polynomial record: 'a0'"),
            ({**good, "n": 1}, "bad polynomial record: n must be an integer >= 2, got 1"),
            ({**good, "n": 4.7}, "bad polynomial record: n must be an integer, got 4.7"),
            ({**good, "n": True}, "bad polynomial record: n must be an integer, got True"),
            ({**good, "n": "4"}, "bad polynomial record: n must be an integer, got '4'"),
            ({**good, "d": 2.5}, "bad polynomial record: d must be an integer, got 2.5"),
            ({**good, "a0": "x"}, "bad polynomial record: could not convert string to float: 'x'"),
            ([1, 2], "bad polynomial record: list indices must be integers or slices, not str"),
            ({**good, "a0": BIG}, "bad polynomial record: int too large to convert to float"),
            ({**good, "a": [BIG, 0.1]}, "bad polynomial record: int too large to convert to float"),
            ({**good, "n": BIG}, "bad polynomial record: n must be an integer < 2^53"),
            ({**good, "n": 2**53}, "bad polynomial record: n must be an integer < 2^53")):
        f = tmp_path / "q.json"
        f.write_text(json.dumps([good, {**good, "d": 1, "a": [1.0], "aa": [0.0]}, bad, good]))
        code, out, err = run(capsys, "check-poly", "--file", str(f))
        assert (code, out, err) == (64, "", f"error: {f}: {message}\n"), bad
    # a bare number or a nested list is read as a flat vector, as from_json_dict reads it
    f.write_text(json.dumps([{**good, "d": 1, "a": 0.5, "aa": [[0.25]]}, good]))
    code, out, _ = run(capsys, "check-poly", "--file", str(f))
    assert code in (0, 1) and len(out.splitlines()) == 2
    # a d-group mixing scalar, nested and flat spellings of one field loads
    # as its flat spelling does
    d1 = {**good, "d": 1, "a": [0.5], "aa": [0.25]}
    f.write_text(json.dumps([d1, good, {**d1, "a": [-0.5]}, {**d1, "aa": [-1.0]}]))
    flat = run(capsys, "--output", "json", "check-poly", "--file", str(f))
    f.write_text(json.dumps([{**d1, "a": 0.5}, good, {**d1, "a": [[-0.5]]},
                             {**d1, "aa": -1.0}]))
    assert run(capsys, "--output", "json", "check-poly", "--file", str(f)) == flat
    assert flat[0] == 1 and len(json.loads(flat[1])["results"]) == 4


def test_first_bad_record_reported_as_from_json_dict_reports_it(tmp_path, capsys):
    """One defect in one record at a random place among good records of
    mixed (n, d): the CLI names it as ``from_json_dict`` does."""
    from momentcert.core import MomentVector, SymmetricQuadratic

    def without(key):
        return lambda r, k: {f: v for f, v in r.items() if f != key.format(*k)}

    def put(key, value):
        return lambda r, k: {**r, key.format(*k): value(r, k) if callable(value) else value}

    defects = [without("n"), without("{0}"), without("{2}"),
               *(put("n", v) for v in (1, 0, -3, 4.5, True, "4", None)),
               *(put("d", v) for v in (0, -1, 2.5, "2")),
               *(put("{0}", v) for v in ("x", math.inf, math.nan, BIG, None)),
               put("{1}", lambda r, k: r[k[1]][:-1]), put("{2}", lambda r, k: r[k[2]] + [0.0]),
               put("{1}", lambda r, k: [math.nan] + r[k[1]][1:]),
               put("{2}", lambda r, k: r[k[2]][:-1] + [BIG]),
               *(put("{1}", v) for v in ("x", None, {"x": 1}, [[0.1], [0.2, 0.3]])),
               lambda r, k: [1, 2], lambda r, k: "record", lambda r, k: None]
    rng = np.random.default_rng(2024)
    f = tmp_path / "rows.json"
    for defect, (kind, command, cls) in itertools.product(
            defects, (("moment", "check-moments", MomentVector),
                      ("polynomial", "check-poly", SymmetricQuadratic))):
        names = ("z0", "z", "zz") if cls is MomentVector else ("a0", "a", "aa")
        rows = []
        for _ in range(int(rng.integers(1, 9))):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 4))
            rows.append({"n": n, "d": d, names[0]: 1.0 + rng.random(),
                         names[1]: rng.normal(size=d).tolist(),
                         names[2]: rng.normal(size=d).tolist()})
        at = int(rng.integers(len(rows)))
        bad = defect(rows[at], names)
        rows[at] = bad
        with pytest.raises(Exception) as exc:
            cls.from_json_dict(bad)
        f.write_text(json.dumps(rows))
        code, out, err = run(capsys, command, "--file", str(f))
        assert (code, out, err) == (64, "", f"error: {f}: bad {kind} record: {exc.value}\n"), bad


@pytest.mark.parametrize("kind", ("moment", "polynomial"))
def test_failing_parse_is_bisected(tmp_path, capsys, monkeypatch, kind):
    """A 10,001-row file whose last row is bad: the batch parse runs
    O(log2 B) times, not once per row, and the error names that row."""
    import momentcert.cli as cli

    rows = 10_001
    if kind == "moment":
        f, command, parser = tmp_path / "rows.csv", "check-moments", "_csv_batches"
        f.write_text("n,d,z0,z,zz\n" + "4,1,1.0,0.5,0.2\n" * (rows - 1) + "5,1,1.0,x,0.0\n")
        message = f"line {rows + 1}: could not convert string to float: 'x'"
    else:
        f, command, parser = tmp_path / "q.json", "check-poly", "_record_batches"
        good = {"n": 4, "d": 1, "a0": 1.0, "a": [0.1], "aa": [0.2]}
        f.write_text(json.dumps([good] * (rows - 1) + [{**good, "aa": [0.2, 0.3]}]))
        message = "bad polynomial record: aa must have length 1, got (2,)"
    calls = []
    parse = getattr(cli, parser)
    monkeypatch.setattr(cli, parser, lambda *a: calls.append(len(a[0])) or parse(*a))
    code, out, err = run(capsys, command, "--file", str(f))
    assert (code, out, err) == (64, "", f"error: {f}: {message}\n")
    assert calls[0] == rows and len(calls) <= math.ceil(math.log2(rows)) + 2, calls


def test_n_and_d_columns_follow_the_per_value_rules(monkeypatch):
    """The batch parsers check n and d on whole columns (``_integral``,
    ``_int_cells``).  On random columns mixing good and bad values they give
    the batches of the per-value rules (``json_int``, ``int`` of each cell)
    or raise the same error."""
    import momentcert.cli as cli
    from momentcert.cli import PARSE_ERRORS, _csv_batches, _record_batches
    from momentcert.core import MOMENT_FIELDS

    good = [2, 4, 4.0, 7, 16.0, 2 ** 52, 2 ** 53, 2 ** 60, 10 ** 30]
    bad = [10 ** 400, 1, -3, 4.5, math.inf, math.nan, True, "4", None, [4]]
    cells = ["4", " 7", "+5", "1_0", "\u0663", "9223372036854775808", "4.0", "x", "", "-3"]

    def outcome(parse, rows):
        try:
            return [(b.d, b.index.tolist(), b.n.tolist(), b.x0.tolist(), b.x.tolist(),
                     b.xx.tolist()) for b in parse(rows)]
        except PARSE_ERRORS as exc:
            return type(exc), str(exc)

    rng = np.random.default_rng(14)
    for _ in range(300):
        size = int(rng.integers(1, 8))
        pick = (lambda pool: pool[int(rng.integers(len(pool)))])
        n = [pick(good) if rng.uniform() < 0.8 else pick(bad) for _ in range(size)]
        d = [pick([1, 2, 2.0]) if rng.uniform() < 0.9 else pick(bad) for _ in range(size)]
        records = [{"n": a, "d": b, "z0": 1.0, "z": [0.5, 0.0][:1 + (b == 2)],
                    "zz": [0.25, 0.0][:1 + (b == 2)]} for a, b in zip(n, d)]
        rows = [[str(a) if rng.uniform() < 0.85 else pick(cells), pick(["1", "1", " 1", "x"]),
                 "1.0", "0.5", "0.25"] for a in rng.integers(2, 65, size=size)]
        got = outcome(lambda r: _record_batches(r, MOMENT_FIELDS), records), outcome(_csv_batches, rows)
        with monkeypatch.context() as m:
            m.setattr(cli, "_integral", lambda col: None)
            m.setattr(cli, "_int_cells", lambda col: [int(c) for c in col])
            want = (outcome(lambda r: _record_batches(r, MOMENT_FIELDS), records),
                    outcome(_csv_batches, rows))
        assert repr(got) == repr(want), (records, rows)


def test_bisected_parse_names_the_first_row_that_fails_alone():
    """Random CSV rows with a few bad ones: ``_parsed`` reports the row and
    the error that parsing each row alone, in order, finds first."""
    from momentcert.cli import PARSE_ERRORS, InputError, _csv_batches, _parsed

    good = [["4", "1", "1.0", "0.5", "0.2"], ["7", "2", "1", "0.1", "0.2", "0.3", "0.4"]]
    bad = [["5", "1", "1.0", "x", "0"], ["1", "1", "1", "0", "0"], ["5", "2", "1", "0"],
           ["5"], ["5", "0", "1"], ["5", "1", "1", "inf", "0"]]
    rng = np.random.default_rng(12)
    for _ in range(300):
        rows = [good[k] for k in rng.integers(2, size=int(rng.integers(1, 40)))]
        for at in rng.integers(len(rows), size=int(rng.integers(1, 4))):
            rows[at] = bad[int(rng.integers(len(bad)))]
        want = None
        for i, row in enumerate(rows):
            try:
                _csv_batches([row])
            except PARSE_ERRORS as exc:
                want = f"row {i}: {exc}"
                break
        with pytest.raises(InputError) as got:
            _parsed(_csv_batches, rows, lambda i: f"row {i}: ")
        assert str(got.value) == want, rows


def test_rows_that_fail_only_together_are_a_fault():
    from momentcert.cli import _parsed

    def together(rows):
        if len(rows) > 1:
            raise ValueError("rows fail together")
        return []

    with pytest.raises(AssertionError):
        _parsed(together, [1, 2, 3], str)


def test_fuzz_iters_below_one_refused(capsys):
    for iters in ("-5", "0"):
        code, out, err = run(capsys, "fuzz", "--suite", "soundness", "--iters", iters)
        assert (code, out, err) == (64, "", f"error: --iters must be >= 1, got {iters}\n")
    assert run(capsys, "fuzz", "--suite", "soundness", "--iters", "1")[0] == 0


def test_spin_components_below_two_refused(capsys):
    for k in ("-1", "0", "1"):
        code, out, err = run(capsys, "spin", "--preset", "mixed", "--n", "4",
                             "--components", k)
        assert (code, out, err) == (64, "", f"error: --components must be >= 2, got {k}\n")
    code, out, _ = run(capsys, "spin", "--preset", "mixed", "--n", "4", "--components", "2")
    assert code == 0 and out.startswith("verdict: ")


def test_spin_mixed_preset_peak_memory_is_flat_in_components(capsys):
    """The mixed preset sums its components one at a time, so 24 of them peak
    no higher than 3 (holding all 24 dense rho would take 8 times more)."""
    peaks = []
    for k in ("2", "3", "24"):  # the first call keeps imports and caches out of the others
        tracemalloc.start()
        try:
            assert run(capsys, "spin", "--preset", "mixed", "--n", "128", "--components", k)[0] == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] < 1.5 * peaks[1], peaks


def test_spin_mixed_preset_validates_only_the_mixture(capsys, monkeypatch):
    """The mixed preset adds its components' outer products and validates the
    sum as one state: one Cholesky factor, not one more per component."""
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    assert run(capsys, "spin", "--preset", "mixed", "--n", "8", "--components", "5")[0] == 0
    assert calls == [(9, 9)]


def test_spin_n_below_two_refused(capsys):
    for preset in ("coherent", "dicke", "ghz", "mixed"):
        for n in ("-1", "0", "1"):
            code, out, err = run(capsys, "spin", "--preset", preset, "--n", n, "--m", "0")
            assert (code, out, err) == (64, "", f"error: --n must be >= 2, got {n}\n")


def test_spin_invalid_dicke_m_refused(capsys):
    code, out, err = run(capsys, "spin", "--preset", "dicke", "--n", "4", "--m", "0.5")
    assert (code, out, err) == (64, "", "error: invalid magnetic number m=0.5 for n=4\n")
    for m in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "spin", "--preset", "dicke", "--n", "4", f"--m={m}")
        assert (code, out, err) == (64, "", f"error: --m must be finite, got {m}\n")


def test_spin_preset_n_above_bound_refused(capsys):
    """Every preset builds a dense (n+1)^2 rho, so --n past MAX_PRESET_N is
    refused before anything is built."""
    n = cli.MAX_PRESET_N + 1
    for preset in ("coherent", "dicke", "ghz", "mixed"):
        code, out, err = run(capsys, "spin", "--preset", preset, "--n", str(n), "--m", "0")
        assert (code, out, err) == (
            64, "", f"error: --n must be <= MAX_PRESET_N={n - 1} for a preset, got {n}\n")


def test_spin_coherent_non_finite_angle_refused(capsys):
    """A non-finite --theta or --phi is refused with one line and no numpy
    warning; the mixed preset ignores both options."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, value in itertools.product(("theta", "phi"), ("nan", "inf", "-inf")):
            code, out, err = run(capsys, "spin", "--preset", "coherent", "--n", "4",
                                 f"--{name}={value}")
            assert (code, out, err) == (64, "", f"error: --{name} must be finite, got {value}\n")
        code, out, _ = run(capsys, "spin", "--preset", "mixed", "--n", "4",
                           "--theta", "nan", "--phi", "inf")
    assert code == 0 and out.startswith("verdict: ")


def test_exact_d1_vertex_past_the_float_range_prints_no_warning(capsys):
    """a1 / (2 a11) overflows at a11 = 5e-324: the infinite vertex clips to
    facet n, and only the verdict is printed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "check-poly", "--route", "exact-d1", "--n", "4", "--d", "1",
                   "--a0", "1", "--a=-0.5", "--aa", "5e-324") == (1, "[0] NonMember\n", "")


def test_spin_state_with_infinite_imaginary_part_prints_no_warning(tmp_path, capsys):
    """1j * inf is NaN + inf j: the state is refused in one line, with no
    numpy warning."""
    path = tmp_path / "state.json"
    path.write_text('{"n": 1, "re": [[1, 0], [0, 0]], "im": [[0, Infinity], [0, 0]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "spin", "--state", str(path)) == (
            64, "", "error: invalid state: rho has a non-finite entry\n")


def test_slice_grid_below_one_refused(capsys):
    plane = json.dumps({"base": [1.0, 0.0, 0.0], "dirs": [[0, 1, 0], [0, 0, 1]]})
    for g in ("-1", "0"):
        code, out, err = run(capsys, "slice", "--cone", "Sigma", "--plane", plane,
                             "--n", "5", "--d", "1", "--grid", g)
        assert (code, out, err) == (64, "", f"error: --grid must be >= 1, got {g}\n")
    code, out, _ = run(capsys, "slice", "--cone", "Sigma", "--plane", plane,
                       "--n", "5", "--d", "1", "--grid", "1")
    assert code == 0 and out.splitlines()[1:] == ["grid,-1,-1,0"]


@pytest.mark.parametrize("argv, text, message", [
    (["check-moments"], "{bad", "{path}: invalid JSON at line 1"),
    (["check-poly"], "{bad", "{path}: invalid JSON at line 1"),
    (["check-moments"], "", "{path}: empty file"),
    (["check-moments"], "a,b,c\n4,1,1\n", "{path}: line 1: header must start with n,d,z0"),
    (["check-moments"], "n,d,z0,z1,z11\n\n  \n", "{path}: no data rows"),
    (["check-moments", "--n", "4"], None, "inline mode needs --n, --d, --z0, --z, --zz"),
    (["check-poly", "--n", "4"], None, "inline mode needs --n, --d, --a0, --a, --aa"),
    (["slice", "--cone", "Sigma", "--n", "4", "--d", "1", "--plane",
      json.dumps({"base": [1, 0], "dirs": [[0, 1, 0], [0, 0, 1]]})], None,
     "plane needs base of length 3 and two direction vectors of the same length"),
    (["spin", "--preset", "ghz"], None, "--preset needs --n"),
    (["spin", "--preset", "dicke", "--n", "4"], None, "--preset dicke needs --m"),
    # one bound on slice size, MAX_SLICE_VALUES, refuses every --grid past 1000
    pytest.param(["slice", "--cone", "Sigma", "--n", "4", "--d", "1", "--grid", "1001", "--plane",
                  json.dumps({"base": [1, 0, 0], "dirs": [[0, 1, 0], [0, 0, 1]]})], None,
                 "--grid 1001 at --d 1 gives 3006003 plane values, more than "
                 "MAX_SLICE_VALUES=3000000",
                 id="argv10-None---grid must be <= MAX_SLICE_GRID=1000, got 1001"),
    (["--seed", "-1", "fuzz", "--suite", "soundness", "--iters", "1"], None,
     "--seed must be >= 0, got -1"),
    (["--seed", "-1", "spin", "--preset", "mixed", "--n", "4"], None, "--seed must be >= 0, got -1"),
    (["--seed", "-1", "check-poly", "--route", "halfdeg", "--n", "3", "--d", "2", "--a0", "1"],
     None, "--seed must be >= 0, got -1"),
    (["--seed", "-1", "check-moments", "--n", "4", "--d", "1", "--z0", "1"], None,
     "--seed must be >= 0, got -1"),
    (["slice", "--cone", "Sigma", "--n", "4", "--d", "3", "--grid", "655", "--plane",
      json.dumps({"base": [1] + [0] * 6, "dirs": [[0, 1] + [0] * 5, [0] * 4 + [1, 0, 0]]})],
     None, "--grid 655 at --d 3 gives 3003175 plane values, more than MAX_SLICE_VALUES=3000000"),
    pytest.param(["check-poly", "--n", str(10**400), "--d", "1", "--a0", "1", "--a", "0",
                  "--aa", "0"], None, "n must be an integer < 2^53", id="poly-inline-n-400-digits"),
    pytest.param(["check-moments", "--n", str(10**400), "--d", "1", "--z0", "1", "--z", "0",
                  "--zz", "0"], None, "n must be an integer < 2^53", id="moments-inline-n-400-digits"),
    pytest.param(["check-poly"], f'{{"n": {10**400}, "d": 1, "a0": 1, "a": [0], "aa": [0]}}',
                 "{path}: bad polynomial record: n must be an integer < 2^53",
                 id="poly-json-n-400-digits"),
    pytest.param(["check-moments"], f'[{{"n": {10**400}, "d": 1, "z0": 1, "z": [0], "zz": [0]}}]',
                 "{path}: bad moment record: n must be an integer < 2^53",
                 id="moments-json-n-400-digits"),
    pytest.param(["check-moments"], f"n,d,z0,z1,z11\n{10**400},1,1,0,0\n",
                 "{path}: line 2: n must be an integer < 2^53", id="moments-csv-n-400-digits"),
    pytest.param(["check-poly"], f'{{"n": 4, "d": {2**64 + 1}, "a0": 1, "a": [0], "aa": [0]}}',
                 "{path}: bad polynomial record: d must be an integer < 2^53",
                 id="poly-json-d-past-64-bits"),
    pytest.param(["check-poly"], "[" * 3000 + "]" * 3000, "{path}: invalid JSON at line 1",
                 id="poly-json-nested-3000-deep"),
    pytest.param(["check-moments"], "[" * 3000 + "]" * 3000, "{path}: invalid JSON at line 1",
                 id="moments-json-nested-3000-deep"),
    # refused before a default vector of d zeros is built for the omitted --a, --aa
    pytest.param(["check-poly", "--n", "4", "--d", str(10**20), "--a0", "1"], None,
                 "d must be an integer < 2^53", id="poly-inline-d-past-64-bits"),
    pytest.param(["check-moments", "--n", "4", "--d", str(10**20), "--z0", "1"], None,
                 "d must be an integer < 2^53", id="moments-inline-d-past-64-bits"),
    # a d below 1 is refused before the grid is built, whatever --grid is
    pytest.param(["slice", "--cone", "Sigma", "--n", "4", "--d", "0", "--grid", "1500", "--plane",
                  json.dumps({"base": [1], "dirs": [[0], [1]]})], None,
                 "d must be an integer >= 1, got 0", id="slice-d-0-grid-1500"),
    pytest.param(["slice", "--cone", "Sigma", "--n", "4", "--d", "-1", "--grid", "100000",
                  "--plane", json.dumps({"base": [1, 0, 0], "dirs": [[0, 1, 0], [0, 0, 1]]})],
                 None, "d must be an integer >= 1, got -1", id="slice-d-minus-1-grid-100000"),
])
def test_input_refusal_prints_one_line(tmp_path, capsys, argv, text, message):
    """Each refusal exits 64 with empty stdout and its one stderr line;
    ``text`` is the content of the --file, when one is given."""
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
        argv = [*argv, "--file", str(path)]
    assert run(capsys, *argv) == (64, "", f"error: {message.format(path=path)}\n")


def _capped_cli(*argv):
    """The CLI in a child process whose address space is capped at 4 GB, so
    that an allocation past that fails at once on any overcommit setting."""
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 32, 1 << 32)); "
            "from momentcert.cli import main; sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env)


def test_json_output_of_nonmember_rows_holds_no_witness_matrix(tmp_path):
    """check-moments --output json builds a witness matrix for each Member
    row only: holding a (2d+2)^2 matrix for every row asked for 17 GB on 64
    NonMember rows at d = 3000, which print their verdicts."""
    path = tmp_path / "nonmember.json"
    path.write_text(json.dumps([{"n": 4, "d": 3000, "z0": -1.0, "z": [0.0] * 3000,
                                 "zz": [0.0] * 3000}] * 64))
    proc = _capped_cli("--output", "json", "check-moments", "--file", str(path))
    assert (proc.returncode, proc.stderr) == (1, "")
    results = json.loads(proc.stdout)["results"]
    assert [r["status"] for r in results] == ["NonMember"] * 64
    assert results[63]["witness"]["separating_polynomial"]["a0"] == 1.0


def test_json_witness_bound_refuses_a_huge_member_up_front():
    """One zero-vector Member at d = 10^6 asked for a 29 TB witness matrix;
    MAX_WITNESS_ENTRIES refuses it in one line before any witness is built,
    and its text output, which needs no witness, is not bounded."""
    inline = ("check-moments", "--n", "4", "--d", "1000000", "--z0", "0")
    proc = _capped_cli("--output", "json", *inline)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        64, "", "error: --output json needs 4000008000004 witness matrix entries, more than "
                "MAX_WITNESS_ENTRIES=4000000\n")
    proc = _capped_cli(*inline)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0] Member\n", "")


def test_witness_bound_counts_the_member_rows_of_the_call(tmp_path, capsys, monkeypatch):
    """MAX_WITNESS_ENTRIES bounds the sum of (2d+2)^2 over the Member rows
    of all d-groups: two d=1 Members (16 each) and one d=2 Member (36) make
    68, and the NonMember and Indeterminate rows add nothing."""
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([
        {"n": 4, "d": 1, "z0": 1.0, "z": [0.0], "zz": [0.0]},
        {"n": 4, "d": 1, "z0": -1.0, "z": [0.0], "zz": [0.0]},
        {"n": 4, "d": 2, "z0": 1.0, "z": [0.0, 0.0], "zz": [0.0, 0.0]},
        {"n": 4, "d": 1, "z0": 0.0, "z": [0.0], "zz": [0.0]},
        {"n": 4, "d": 1, "z0": 1.0, "z": [0.0], "zz": [12.0]}]))
    argv = ("--output", "json", "check-moments", "--file", str(path))
    monkeypatch.setattr(cli, "MAX_WITNESS_ENTRIES", 68)
    code, out, err = run(capsys, *argv)
    statuses = [r["status"] for r in json.loads(out)["results"]]
    assert (code, err, statuses) == (
        1, "", ["Member", "NonMember", "Member", "Member", "Indeterminate"])
    monkeypatch.setattr(cli, "MAX_WITNESS_ENTRIES", 67)
    assert run(capsys, *argv) == (64, "", "error: --output json needs 68 witness matrix "
                                          "entries, more than MAX_WITNESS_ENTRIES=67\n")


@pytest.mark.parametrize("route", ("lmi", "ellipsoid", "exact-d1"))
@pytest.mark.parametrize("n", (30_000, pytest.param(40_000, marks=pytest.mark.xfail(
    strict=True, reason="the P/Sigma tolerance tol max(1, scale n^2) is 1.6 at "
                        "n = 40000 and swallows min Q = -1 (ROADMAP item 5)"))))
def test_negative_constant_is_not_nonnegative_at_large_n(capsys, route, n):
    code, out, _ = run(capsys, "check-poly", "--route", route, "--n", str(n), "--d", "1",
                       "--a0", "-1", "--a", "0", "--aa", "0")
    assert (code, out) == (1, "[0] NonMember\n")


def test_json_moment_record_integer_fields(tmp_path, capsys):
    """n and d are refused, not truncated, unless integral; 4.0 reads as 4."""
    f = tmp_path / "m.json"
    for n, d, message in ((4.7, 1, "n must be an integer, got 4.7"),
                          (4, 1.9, "d must be an integer, got 1.9"),
                          (False, 1, "n must be an integer, got False"),
                          (math.inf, 1, "n must be an integer, got inf")):
        f.write_text(json.dumps([{"n": n, "d": d, "z0": 1.0, "z": [0.0], "zz": [0.0]}]))
        code, out, err = run(capsys, "check-moments", "--file", str(f))
        assert (code, out) == (64, "") and err == f"error: {f}: bad moment record: {message}\n"
    f.write_text(json.dumps({"n": 4.0, "d": 1.0, "z0": 1.0, "z": [0.0], "zz": [0.0]}))
    code, out, _ = run(capsys, "--output", "json", "check-moments", "--file", str(f))
    assert code == 0 and len(json.loads(out)["results"]) == 1
    assert parsed_rows(cli._load_moment_rows(str(f)))[0]["n"] == 4


def test_ellipsoid_minimum_on_an_empty_bisection_interval(capsys):
    # ||g|| = 2e-20 is below one ulp of lam_lo = 4, so [lam_lo, lam_lo + ||g||]
    # is empty; the minimum is the hard-case point against the sign of g
    import math

    from momentcert.core import DEFAULT_TOL, ProblemDims, SymmetricQuadratic, scaled_tolerance
    from reference_forms import pq_evaluate

    from momentcert.sos_cone import EllipsoidPoint

    def strict(name):
        raise ValueError(f"non-finite number {name} in the output")

    code, out, _ = run(capsys, "--output", "json", "check-poly", "--route", "ellipsoid",
                       "--n", "2", "--d", "1", "--a0", "1", "--a", "1e-20", "--aa", "-1")
    r = json.loads(out, parse_constant=strict)["results"][0]["routes"]["ellipsoid"]
    assert code == 1 and r["status"] == "NonMember"
    assert r["min_value"] == -1.0 and r["x"] == [-math.sqrt(2.0)] and r["y"] == [0.0]
    q = SymmetricQuadratic(ProblemDims(2, 1), 1.0, [1e-20], [-1.0])
    pt = EllipsoidPoint(r["x"], r["y"])
    assert pt.check_inside(2)
    assert abs(pq_evaluate(q, pt) - r["min_value"]) <= scaled_tolerance(DEFAULT_TOL, q.coeff_scale(), 2)


@pytest.mark.parametrize("route", [
    "lmi",
    pytest.param("ellipsoid", marks=pytest.mark.xfail(
        strict=True, reason="the secular root lies 5e-10 above the pole at lam_lo = 40, "
        "where the float grid of λ resolves ||w|| only to about 1e-5")),
])
def test_ellipsoid_minimum_just_above_the_pole(capsys, route):
    """min P_Q is -1.0e-4 (at λ = 40 + 5e-10, w_1 = -1), far below -t = -5e-7,
    and the lmi route says NonMember; the ellipsoid route prints a minimum of
    4.5e-5 and Member.  Solving for λ - lam_lo would resolve it."""
    code, out, _ = run(capsys, "check-poly", "--route", route, "--n", "5", "--d", "2",
                       "--a0", "19.9999", "--a=1e-10,0", "--aa=-1,0.5")
    assert (code, out) == (1, "[0] NonMember\n")


def test_json_output_is_the_indented_layout(tmp_path, capsys):
    """Every JSON-emitting command prints json.dumps(..., indent=2,
    sort_keys=True) of what it prints, plus a newline."""
    moments, polys = _mixed_rows(13, 12, n_max=6, d_max=3)
    mfile, pfile, d1file = (tmp_path / name for name in ("m.json", "q.json", "q1.json"))
    mfile.write_text(json.dumps([m.to_json_dict() for m in moments]))
    pfile.write_text(json.dumps([q.to_json_dict() for q in polys]))
    d1file.write_text(json.dumps([q.to_json_dict() for q in polys if q.dims.d == 1]))
    plane = json.dumps({"base": [1.0, 0.0, 0.0], "dirs": [[0, 1, 0], [0, 0, 1]]})
    argvs = [("check-moments", "--file", str(mfile))]
    argvs += [("check-poly", "--route", route, "--file", str(d1file if route == "exact-d1"
                                                             else pfile))
              for route in ("lmi", "ellipsoid", "exact-d1", "halfdeg", "all")]
    argvs += [("spin", "--preset", "dicke", "--n", "4", "--m", "0"),
              ("slice", "--cone", "Sigma", "--plane", plane, "--n", "5", "--d", "1",
               "--grid", "7"),
              ("fuzz", "--suite", "witness", "--iters", "5")]
    for argv in argvs:
        code, out, _ = run(capsys, "--output", "json", *argv)
        assert code != 64 and out == json.dumps(json.loads(out), indent=2,
                                                sort_keys=True) + "\n", argv


def test_json_verdicts_are_written_a_block_at_a_time(tmp_path, monkeypatch):
    """The writer makes a block of records when it reaches the block's first
    row and then writes every record made up to the next block to make: one
    write per block between the head and the tail, none of them the whole
    results list."""
    import io
    import sys

    import momentcert.cli as cli

    class Writes(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    monkeypatch.setattr(cli, "JSON_BLOCK_LEAVES", JSON_BLOCK_LEAVES)
    record_texts = cli._record_texts
    monkeypatch.setattr(cli, "_record_texts",
                        lambda *a: made.append(len(sizes)) or record_texts(*a))
    moments, _ = _mixed_rows(14, 9)
    f = tmp_path / "m.json"
    f.write_text(json.dumps([m.to_json_dict() for m in moments]))
    sizes, made, out = [], [], Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["--output", "json", "check-moments", "--file", str(f)]) in (1, 2)
    text = out.getvalue()
    results = json.loads(text)["results"]
    assert text == json.dumps({"results": results, "schema": "2"}, indent=2,
                              sort_keys=True) + "\n"
    # the writes made before each block: the head, then one per block
    assert made == list(range(1, len(made) + 1)) and len(sizes) == len(made) + 2
    assert len(made) >= 3 and max(sizes[1:-1]) < sum(sizes[1:-1])


def test_json_payloads_hold_builtin_types_only(tmp_path, capsys, monkeypatch):
    """Every block of record texts is plain JSON: no numpy scalar's repr
    leaks into a record, and each block parses to builtin types only."""
    import momentcert.cli as cli
    payloads = []  # per call, the blocks of record texts it wrote
    emit = cli._emit_verdicts
    monkeypatch.setattr(cli, "_emit_verdicts",
                        lambda status, boundary, runs, cfg: payloads.append([]) or emit(
                            status, boundary, (payloads[-1].append(r) or r for r in runs), cfg))
    moments, polys = _mixed_rows(15, 12, n_max=6, d_max=2)
    mfile, pfile = tmp_path / "m.json", tmp_path / "q.json"
    mfile.write_text(json.dumps([m.to_json_dict() for m in moments]))
    pfile.write_text(json.dumps([q.to_json_dict() for q in polys]))
    run(capsys, "--output", "json", "check-moments", "--file", str(mfile))
    run(capsys, "--output", "json", "check-poly", "--route", "all", "--file", str(pfile))

    def types(obj):
        yield type(obj)
        if isinstance(obj, dict):
            obj = [*obj.keys(), *obj.values()]
        if isinstance(obj, list):
            for v in obj:
                yield from types(v)

    blocks = [block for call in payloads for block in call]
    assert len(payloads) == 2 and [sum(map(len, call)) for call in payloads] == [12, 12]
    assert all(type(t) is str for block in blocks for t in block)
    assert not any("np." in t for block in blocks for t in block)
    records = [json.loads("[" + ",".join(block) + "]") for block in blocks]
    assert "separating_polynomial" in json.dumps(records[:len(payloads[0])])
    assert set(types(records)) <= {dict, list, str, int, float, bool, type(None)}


def test_spin_text_prints_residuals_within_tolerance_as_zero(capsys):
    argv = ("spin", "--preset", "coherent", "--n", "7", "--theta", "0.4")
    _, text, _ = run(capsys, *argv)
    _, out, _ = run(capsys, "--output", "json", *argv)
    report = json.loads(out)
    rows = report["necessary"]
    lines = [ln for ln in text.splitlines() if "residual=" in ln]
    assert len(lines) == len(rows) == 3
    t = 1e-9 * 7 * 7  # the tolerance that sets VIOLATED
    for line, r in zip(lines, rows):
        printed = line.split("residual=")[1].split()[0]
        assert printed == ("0" if abs(r["spin_residual"]) <= t else f"{r['residual']:.6g}")
        assert ("VIOLATED" in line) == r["violated"]
    # the coherent state saturates every squeezing row up to rounding noise
    assert any(abs(r["spin_residual"]) <= t and r["residual"] != 0 for r in rows)


def test_one_parser_serves_every_call_of_a_process(capsys):
    """The parser is built once per process; calls with other subcommands
    and options, and an argparse error between them, print what separate
    processes print."""
    import os
    import subprocess

    import momentcert.cli as cli
    moments = ("check-moments", "--n", "4", "--d", "1", "--z0", "1", "--z", "3", "--zz", "0")
    argvs = [moments,
             ("--output", "json", "check-poly", "--route", "all", "--n", "4", "--d", "1",
              "--a0", "1", "--a", "0", "--aa", "0"),
             ("check-poly", "--route", "nope"),
             ("--output", "csv", "--tol", "1e-6", "check-moments", "--n", "4", "--d", "2",
              "--z0", "1", "--z", "0.1,0.2", "--zz", "0.3,0.1"),
             ("spin", "--preset", "ghz", "--n", "3"),
             moments]
    together = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        together.append((code, capsys.readouterr().out))
    assert cli.build_parser.cache_info().currsize == 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    apart = [subprocess.run([sys.executable, "-m", "momentcert.cli", *argv], env=env,
                            capture_output=True) for argv in argvs]
    assert together == [(p.returncode, p.stdout.decode()) for p in apart]
    assert [code for code, _ in together] == [1, 0, 2, 0, 0, 1]


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_with_empty_stderr(unbuffered):
    """When the reader closes stdout before the run writes, the run exits 141
    (128 + SIGPIPE) with nothing on stderr, whether a write or the final
    flush meets the closed pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (("--output", "json", "spin", "--n", "6", "--preset", "dicke", "--m", "1"),
                 ("check-moments", "--n", "4", "--d", "1", "--z0", "1", "--z", "0", "--zz", "0")):
        read, write = os.pipe()
        os.close(read)
        try:
            p = subprocess.run([sys.executable, "-m", "momentcert.cli", *argv], stdout=write,
                               stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (p.returncode, p.stderr) == (141, b""), argv


def _scaled(argv: list, values: dict, s: float) -> list:
    """``argv`` followed by the inline options ``values``, each times ``s``."""
    return argv + [f"--{k}={float(v * s)!r}" for k, v in values.items()]


def test_moment_rows_past_the_magnitude_bound_are_refused(tmp_path, capsys):
    """A moment row whose max-form residual would overflow is refused: at
    S = 1e155 every part of (4, 1, S, S, S) printed a NaN residual and a
    NonMember verdict.  At the bound the row is still a Member, as at any
    smaller scale (the moment cone is a cone)."""
    bound = float(magnitude_bound(np.array([4.0]), 1, MOMENT_FIELDS)[0])
    assert bound == math.sqrt(sys.float_info.max / 3)
    argv, row = ["check-moments", "--n", "4", "--d", "1"], {"z0": 1.0, "z": 1.0, "zz": 1.0}
    for s in (1.0, 1e100, bound):
        assert run(capsys, *_scaled(argv, row, s))[:2] == (0, "[0] Member\n"), s
    for s in (np.nextafter(bound, np.inf), 1e155):
        code, out, err = run(capsys, *_scaled(argv, row, s))
        assert (code, out) == (64, "") and err.count("\n") == 1, s
        assert f"must be at most {bound!r} in magnitude" in err
    f = tmp_path / "m.csv"
    f.write_text("n,d,z0,z1,z11\n4,1,1,0,0\n4,1,1e155,1e155,1e155\n")
    code, out, err = run(capsys, "check-moments", "--file", str(f))
    assert (code, out) == (64, "") and err.startswith(f"error: {f}: line 3: z0, z, zz must be")


def test_library_rows_past_the_magnitude_bound_are_refused_when_built(capsys):
    """MomentVector and SymmetricQuadratic apply the CLI's row rule, with its
    message, when they are built: ``classify`` of the ray (4, 1, S, S, S)
    returned NonMember with overflow warnings at S = 1e155, although the
    ray is Member at S = 1."""
    assert classify(MomentVector(ProblemDims(4, 1), 1.0, [1.0], [1.0])).is_member
    for argv, build in (
            (["check-moments", "--z0", "1e155", "--z", "1e155", "--zz", "1e155"],
             lambda: classify(MomentVector(ProblemDims(4, 1), 1e155, [1e155], [1e155]))),
            (["check-poly", "--a0", "1e200", "--a", "0", "--aa", "0"],
             lambda: SymmetricQuadratic(ProblemDims(4, 1), 1e200, [0.0], [0.0]))):
        with pytest.raises(ValueError) as exc:
            build()
        assert run(capsys, argv[0], "--n", "4", "--d", "1", *argv[1:]) == (
            64, "", f"error: {exc.value}\n")
        assert "must be at most" in str(exc.value)


@pytest.mark.parametrize("route", ["lmi", "ellipsoid", "exact-d1", "halfdeg"])
def test_polynomials_past_the_magnitude_bound_are_refused(capsys, route):
    """Up to sqrt(max float / (2d+1)) / n each route gives the verdict of the
    unscaled quadratic (P and Sigma are cones); past it the row is refused.
    Without the bound, lmi and ellipsoid flipped verdicts near 1e154 and
    halfdeg raised OverflowError at 1e200."""
    for n, row in ((3, {"a0": 1.0, "a": 0.0, "aa": 0.4}),  # in P, not in Sigma
                   (4, {"a0": -1.0, "a": 0.5, "aa": 0.0}),
                   (5, {"a0": 1.0, "a": 0.25, "aa": -0.125})):
        bound = float(magnitude_bound(np.array([float(n)]), 1, POLY_FIELDS)[0])
        assert bound == math.sqrt(sys.float_info.max / 3) / n
        argv = ["check-poly", "--route", route, "--n", str(n), "--d", "1"]
        expect = run(capsys, *_scaled(argv, row, 1.0))[:2]
        assert run(capsys, *_scaled(argv, row, bound))[:2] == expect, (n, route)
        for s in (np.nextafter(bound, np.inf), 1e200):
            code, out, err = run(capsys, *_scaled(argv, row, s))
            assert (code, out) == (64, "") and "must be at most" in err, (n, route, s)
