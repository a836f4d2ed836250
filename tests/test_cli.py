import itertools
import json
import math
import warnings

import numpy as np
import pytest

from momentcert.cli import main
from momentcert.spin import ghz_state

#: a 400-digit integer literal: beyond every float
BIG = int("1" * 400)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    assert obj["schema"] == "1"
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
    assert len(obj["necessary"]) == 8


def test_spin_preset_coherent_text(capsys):
    for n in ("6", "512"):
        code, out, _ = run(capsys, "spin", "--preset", "coherent", "--n", n,
                           "--theta", "0.7")
        assert code == 0
        assert "verdict: Inconclusive" in out
        # necessary rows all hold; only sufficient-side rows may fail
        nec_lines = [ln for ln in out.splitlines() if ln.strip().startswith("necessary")]
        assert nec_lines and all("VIOLATED" not in ln for ln in nec_lines)


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
    from momentcert.exact_d1 import limit_cone_d1
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


def test_slice_grid_matches_scalar_api(capsys):
    from momentcert.core import MomentVector, ProblemDims, SymmetricQuadratic
    from momentcert.exact_d1 import limit_cone_d1, p_n1_membership
    from momentcert.moment_cone import necessary_condition, sufficient_condition
    from momentcert.sos_cone import sigma_membership_lmi, sigma_prime_membership
    dims = ProblemDims(5, 1)
    scalar = {
        "P": lambda v: p_n1_membership(SymmetricQuadratic(dims, *v))[0].is_member,
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


def test_fuzz_suite_runs(capsys):
    code, out, _ = run(capsys, "--output", "json", "fuzz",
                       "--suite", "soundness", "--iters", "200")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] and obj["iterations"] == 200


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    # the mixed preset draws its components from the run seed
    monkeypatch.setenv("MC_SEED", "7")
    code, out1, _ = run(capsys, "--output", "json", "spin", "--preset",
                        "mixed", "--n", "4")
    monkeypatch.setenv("MC_SEED", "8")
    code, out2, _ = run(capsys, "--output", "json", "spin", "--preset",
                        "mixed", "--n", "4")
    assert json.loads(out1)["moments"] != json.loads(out2)["moments"]
    monkeypatch.setenv("MC_SEED", "7")
    code, out3, _ = run(capsys, "--output", "json", "spin", "--preset",
                        "mixed", "--n", "4")
    assert json.loads(out1)["moments"] == json.loads(out3)["moments"]


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
    import momentcert.cli as cli
    calls = []
    convert = cli._witness_jsonable
    monkeypatch.setattr(cli, "_witness_jsonable",
                        lambda obj: calls.append(obj) or convert(obj))
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
    assert calls and "separating_polynomial" in out
    calls.clear()
    code, out, _ = run(capsys, "--output", "json", *argvs[1])
    assert calls and json.loads(out)["results"][1]["routes"]["exact-d1"]["witness"]["k"] == 0


def test_input_records_built_for_json_output_only(tmp_path, capsys, monkeypatch):
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
    for output in ("text", "csv"):
        for argv in (("check-moments", "--file", str(moments)),
                     ("check-poly", "--file", str(poly)),
                     ("check-poly", "--route", "all", "--file", str(poly))):
            run(capsys, "--output", output, *argv)
    assert calls == []
    code, out, _ = run(capsys, "--output", "json", "check-moments", "--file", str(moments))
    assert json.loads(out)["results"][1]["input"] == {"n": 4, "d": 1, "z0": 1.0,
                                                       "z": [8.0], "zz": [0.0]}


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
        assert [r["input"] for r in results] == [json.loads(json.dumps(m.to_json_dict()))
                                                 for m in moments]
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
            (f"{BIG},1,1.0,0.0,0.0", "line 6: int too large to convert to float"),
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
            ({**good, "n": BIG}, "bad polynomial record: int too large to convert to float"),
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
    assert code == 0 and json.loads(out)["results"][0]["input"]["n"] == 4


def test_ellipsoid_minimum_on_an_empty_bisection_interval(capsys):
    # ||g|| = 2e-20 is below one ulp of lam_lo = 4, so [lam_lo, lam_lo + ||g||]
    # is empty; the minimum is the hard-case point against the sign of g
    import math

    from momentcert.core import DEFAULT_TOL, ProblemDims, SymmetricQuadratic, scaled_tolerance
    from momentcert.sos_cone import EllipsoidPoint, pq_evaluate

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
    import io
    import sys

    import momentcert.cli as cli

    class Writes(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    moments, _ = _mixed_rows(14, 2 * cli.JSON_BLOCK + 3)
    f = tmp_path / "m.json"
    f.write_text(json.dumps([m.to_json_dict() for m in moments]))
    sizes, out = [], Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["--output", "json", "check-moments", "--file", str(f)]) in (1, 2)
    text = out.getvalue()
    results = json.loads(text)["results"]
    assert text == json.dumps({"results": results, "schema": "1"}, indent=2,
                              sort_keys=True) + "\n"
    blocks = [results[s:s + cli.JSON_BLOCK] for s in range(0, len(results), cli.JSON_BLOCK)]
    block_text = max(len(json.dumps(b, indent=2, sort_keys=True).replace("\n", "\n  "))
                     for b in blocks)
    assert len(blocks) == 3 and len(sizes) >= 3 and max(sizes) <= block_text


def test_json_payloads_hold_builtin_types_only(tmp_path, capsys, monkeypatch):
    import momentcert.cli as cli
    payloads = []
    emit = cli._emit_verdicts
    monkeypatch.setattr(cli, "_emit_verdicts",
                        lambda results, cfg: payloads.append(results) or emit(results, cfg))
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

    assert "separating_polynomial" in json.dumps(payloads[0])
    assert set(types(payloads)) <= {dict, list, str, int, float, bool, type(None)}


def test_spin_text_prints_residuals_within_tolerance_as_zero(capsys):
    argv = ("spin", "--preset", "coherent", "--n", "7", "--theta", "0.4")
    _, text, _ = run(capsys, *argv)
    _, out, _ = run(capsys, "--output", "json", *argv)
    report = json.loads(out)
    rows = report["necessary"] + report["sufficient"]
    lines = [ln for ln in text.splitlines() if "residual=" in ln]
    assert len(lines) == len(rows) == 16
    t = 1e-9 * 7 * 7  # the tolerance that sets VIOLATED
    for line, r in zip(lines, rows):
        printed = line.split("residual=")[1].split()[0]
        assert printed == ("0" if abs(r["spin_residual"]) <= t else f"{r['residual']:.6g}")
        assert ("VIOLATED" in line) == r["violated"]
    # the coherent state saturates every necessary row up to rounding noise
    assert any(abs(r["spin_residual"]) <= t and r["residual"] != 0 for r in rows)
