"""The benchmark's tracer wraps package functions by the names their
callers bind; renaming one of them must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import json
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = ("cli", "core", "moment_cone", "sos_cone", "exact_d1", "halfdeg", "spin")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_on_the_package_and_restores_it(capsys):
    pkg = {name: importlib.import_module(f"momentcert.{name}") for name in MODULES}
    tracer = _tracing().Tracer()
    try:
        tracer.install(pkg)
        wrapped = list(tracer._restore)
        assert pkg["cli"].main(["--output", "json", "check-moments", "--n", "4", "--d", "1",
                                "--z0", "1", "--z", "3", "--zz", "0"]) == 1
        moments = capsys.readouterr().out
        serialize = tracer.summary()["spans"]["cli.serialize"]["count"]
        # fuzz output converts its witness objects
        assert pkg["cli"].main(["--output", "json", "fuzz", "--suite", "witness",
                                "--iters", "3"]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    assert serialize == 1 and spans["cli.serialize"]["count"] == 2
    assert spans["cli.witness_jsonable"]["count"] >= 1
    assert all(vars(owner)[attr] is raw for owner, attr, raw in wrapped)
    assert json.loads(moments)["results"][0]["status"] == "NonMember"
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_bench_tracer_times_the_text_writer(capsys):
    """Text output converts no witness, and its writer still has a span, so
    the serialize layer of a text workload times the writer."""
    pkg = {name: importlib.import_module(f"momentcert.{name}") for name in MODULES}
    tracer = _tracing().Tracer()
    try:
        tracer.install(pkg)
        assert pkg["cli"].main(["check-poly", "--route", "all", "--n", "4", "--d", "1",
                                "--a0", "1", "--a", "3", "--aa", "0"]) == 1
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    assert spans["cli.serialize"]["count"] == 1
    assert spans.get(_tracing().WITNESS, {"count": 0})["count"] == 0
    assert capsys.readouterr().out == "[0] NonMember\n"


def test_traced_halfdeg_search_spans_one_pattern_each(capsys):
    """The benchmark's traced run (``pattern_mismatches`` in bench/run.py)
    wants one ``halfdeg.pattern`` span per multiplicity pattern, so a
    half-degree search that stacks its patterns must fail here first."""
    pkg = {name: importlib.import_module(f"momentcert.{name}") for name in MODULES}
    partition_count = pkg["halfdeg"].partition_count
    rows = ((5, 2, "1,-0.5", "-0.25,0.5"), (4, 3, "0.5,-1,0.25", "0.5,-0.25,-1"))
    tracer = _tracing().Tracer()
    try:
        tracer.install(pkg)
        for k, (n, d, a, aa) in enumerate(rows):
            tracer.call_id = k
            pkg["cli"].main(["check-poly", "--route", "halfdeg", "--n", str(n), "--d", str(d),
                             "--a0", "1", f"--a={a}", f"--aa={aa}"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    want = {str(k): partition_count(n, 2 * d) for k, (n, d, _, _) in enumerate(rows)}
    assert tracer.summary()["patterns_per_call"] == want == {"0": 6, "1": 5}


def test_traced_state_file_decode_runs_in_the_parse_span(tmp_path, capsys, monkeypatch):
    """``spin --state`` decodes with orjson behind ``json.load``'s decoder
    hook, so the decode runs inside the cli.parse span that the tracer puts
    on ``cli.json.load``."""
    from momentcert.spin import ghz_state

    pkg = {name: importlib.import_module(f"momentcert.{name}") for name in MODULES}
    tracer = _tracing().Tracer()
    state = tmp_path / "state.json"
    state.write_text(json.dumps(ghz_state(2).to_json_dict()))
    spans = []
    loads = pkg["cli"].orjson.loads

    def spy(s):
        top = tracer.stack[-1]
        spans.append(tracer.names[tracer.name[top]] if top >= 0 else None)
        return loads(s)

    monkeypatch.setattr(pkg["cli"].orjson, "loads", spy)
    try:
        tracer.install(pkg)
        assert pkg["cli"].main(["spin", "--state", str(state)]) == 0
    finally:
        tracer.uninstall()
    assert spans == ["cli.parse"]

