"""Benchmark for momentcert: four CLI workloads, measured end to end.

Usage (from the root of a checkout):

    python3 bench/run.py --workload certify-text --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: certify-text, certify-json, halfdeg-search, spin-states (see
``workloads.py`` for what each runs and why); ``all`` runs them in turn.

Every run generates its input files from ``--seed`` under ``.bench_out/``,
then drives ``momentcert.cli.main(argv)`` in-process on them with stdout
captured, in a fresh single-process worker with BLAS fixed at one thread.
The package is always imported from this checkout's ``src/``; without it the
benchmark exits 2 and prints no result.  Users are one closed-loop client:
each call starts when the previous one has returned.

``--trace 0`` reports the end-to-end metrics.  Every time in them is put
at reference speed: the host's speed drifts from minute to minute, so the
worker follows each timed call with a fixed reference computation and each
time is scaled by how fast that ran nearby (``pace.py``).  The record keeps
the wall-clock values too, and the speed factors.

* setup_s      fresh interpreter to the first verdict (import, parser build,
               one call on a one-record input), median of 10 fresh
               processes started at evenly spaced points of the timed run;
* rows_per_s   input records (moment vectors, polynomials or states) per
               second of timed call time, after warm-up, over whole cycles
               of calls lasting at least --seconds and, unless they last
               4 x --seconds, at least 100 calls;
* call_ms_p50, call_ms_p90   one ``cli.main`` call on one input file
               (Harrell-Davis estimates; the record gives the call count);
* peak_rss_mb  ru_maxrss of the worker process that ran the workload.

``--trace 1`` runs a fixed number of cycles untraced and then traced, and
reports per-layer metrics (self time, counts and ratios per module of the
package), the tracing overhead and the kernel rows of ROADMAP item 1.  The
kernel rows do not depend on the workload: they are measured once per
invocation and, with ``--workload all``, reported once without a prefix.

Both modes check every distinct output with the benchmark's own formulas
(``checks.py``) after the timed interval, including the set-up calls and
the untimed judge-only calls; a record fails when its call
raised or exited 64, its verdict or witness is rejected, or the exit code
does not match the verdicts.  ``failed_frac`` is failed / attempted records.
The full record of a run (machine, inputs, outputs, failures with
reproducers) is written to ``.bench_out/<workload>-seed<N>-trace<T>.json``.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import kernels
import oracle
import pace
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 160
SHOWN_FAILURES = 20


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MC_SEED", "PYTHONPATH")}
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def machine(trace: bool) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = {}
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS}, "trace": trace}


def run_worker(rundir: Path, seconds: float, trace: bool) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(rundir),
                           repr(float(seconds)), "1" if trace else "0"],
                          env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return json.loads((rundir / "worker.json").read_text())


def reproducer(argv: list[str]) -> str:
    """The shell command that repeats one call from the root of the checkout."""
    args = [os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a for a in argv]
    return "PYTHONPATH=src python3 -m momentcert.cli " + " ".join(args)


def judge(plan: workloads.Plan, outputs: dict) -> tuple[int, int, list[dict], dict]:
    """Failed records (weighted by how often each output was produced), the
    failure list, and the first output of each call."""
    first = {}
    for key, outs in outputs.items():
        first[int(key)] = Path(outs[0]["path"]).read_text()
    extra = checks.check_route_agreement(plan.calls, first, plan.output, plan.expect)
    failed, attempted, failures = 0, 0, []
    for key, outs in sorted(outputs.items(), key=lambda kv: int(kv[0])):
        idx = int(key)
        call = plan.calls[idx]
        expect = plan.expect[call["file"]]
        for k, out in enumerate(outs):
            text = Path(out["path"]).read_text() if out["rc"] is not None else None
            reasons = checks.check_call(call, expect, text, out["rc"], plan.output,
                                        seed=plan.seed * 1000 + idx)
            if k == 0 and idx in extra:
                reasons = [r or e for r, e in zip(reasons, extra[idx])]
            bad = [(row, r) for row, r in enumerate(reasons) if r]
            attempted += len(reasons) * out["count"]
            failed += len(bad) * out["count"]
            for row, reason in bad:
                failures.append({"reproduce": reproducer(call["argv"]), "file": call["file"],
                                 "record": row, "reason": reason, "times": out["count"],
                                 "stderr": out.get("stderr", "")})
    return attempted, failed, failures, first


def output_record(plan: workloads.Plan, first: dict[int, str]) -> dict:
    """Verdict mix per command/route and a digest of the concatenated stdout."""
    mix: dict[str, Counter] = {}
    digest = hashlib.sha256()
    for idx in sorted(first):
        call = plan.calls[idx]
        group = call["route"] or call["kind"]
        mix.setdefault(group, Counter()).update(checks.verdicts(call, first[idx], plan.output))
        digest.update(first[idx].encode())
    return {"verdict_mix": {k: dict(sorted(v.items())) for k, v in sorted(mix.items())},
            "stdout_sha256": digest.hexdigest(), "calls_with_output": len(first)}


def _percentile(values, q) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A workload mixes calls of very different sizes, so the sorted call times
    form groups with gaps between them.  A single order statistic (or the
    interpolation of two) jumps across such a gap when one call is a little
    slow; the Harrell-Davis estimate is a Beta((n+1)p, (n+1)(1-p))-weighted
    mean of all order statistics and moves smoothly instead.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 2:
        return float(x[0]) if n else 0.0
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cells = 16                       # midpoint rule per order statistic
    t = (np.arange(n * cells) + 0.5) / (n * cells)
    logw = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    w = np.exp(logw - logw.max()).reshape(n, cells).sum(axis=1)
    return float(w @ x / w.sum())


def at_reference_speed(worker: dict) -> tuple[list[float], list[float]]:
    """Call times and set-up times, each times the speed factor of the
    reference chunks around it (``pace.py``)."""
    timed = worker["timed"]
    speed = pace.factors(timed["pace_s"])
    dur = (np.asarray(timed["durations"]) * speed[:len(timed["durations"])]).tolist()
    setup = [s * speed[min(at, speed.size - 1)]
             for s, at in zip(worker["setup_s"], worker["setup_at"])]
    return dur, setup


def end_to_end(worker: dict, dur: list[float], setup: list[float]) -> dict:
    """The end-to-end metrics from call times ``dur`` and set-up times."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "rows_per_s": (worker["timed"]["records"] / sum(dur), "rows/s"),
        "call_ms_p50": (1e3 * _percentile(dur, 50), "ms"),
        "call_ms_p90": (1e3 * _percentile(dur, 90), "ms"),
        "peak_rss_mb": (worker["maxrss_kb"] / 1024.0, "MB"),
    }


def per_layer(worker: dict, plan: workloads.Plan, first: dict[int, str]) -> dict:
    spans, counts = worker["trace"]["spans"], worker["trace"]["counts"]
    traced = worker["traced"]
    rows = traced["records"]

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def count(name):
        return spans.get(name, {}).get("count", 0)

    status = Counter()     # check-moments verdicts, "(boundary)" counted apart
    spin = Counter()
    for idx in traced["order"]:
        call = plan.calls[idx]
        found = checks.verdicts(call, first[idx], plan.output)
        if call["kind"] == "moments":
            status.update(v.split(" ")[0] for v in found)
            status["boundary"] += sum(v.endswith("(boundary)") for v in found)
        elif call["kind"] == "spin":
            spin.update(found)
    n_status = (sum(status.values()) - status["boundary"]) or 1
    patterns = spans.get("halfdeg.pattern", {}).get("durations_s", [])
    searches = count("halfdeg.search")
    converted = count(tracing.WITNESS)
    out = {
        "cli.parse_s": (self_s("cli.parse"), "s"),
        "cli.serialize_s": (self_s("cli.serialize", tracing.WITNESS), "s"),
        "cli.out_bytes_per_row": (traced["stdout_bytes"] / rows, "bytes/row"),
        # no conversion at all wastes nothing
        "cli.witness_used_frac": (traced["witness_used"] / converted if converted else 1.0,
                                  "fraction"),
        "core.construct_s": (self_s("core.construct"), "s"),
        "core.construct_calls_per_row": (count("core.construct") / rows, "count"),
        "core.scale_calls_per_row": (counts.get("core.scale", 0) / rows, "count"),
        "moment_cone.classify_s": (self_s("moment_cone.classify"), "s"),
        "moment_cone.condition_s": (self_s("moment_cone.condition"), "s"),
        "moment_cone.witness_s": (self_s("moment_cone.witness"), "s"),
        "moment_cone.member_frac": (status["Member"] / n_status, "fraction"),
        "moment_cone.nonmember_frac": (status["NonMember"] / n_status, "fraction"),
        "moment_cone.indeterminate_frac": (status["Indeterminate"] / n_status, "fraction"),
        "moment_cone.boundary_frac": (status["boundary"] / n_status, "fraction"),
        "sos_cone.lmi_s": (self_s("sos_cone.lmi"), "s"),
        "sos_cone.lmi_calls_per_row": (count("sos_cone.lmi") / rows, "count"),
        "sos_cone.ellipsoid_s": (self_s("sos_cone.ellipsoid"), "s"),
        "sos_cone.witness_s": (self_s("sos_cone.witness"), "s"),
        "exact_d1.p_n1_s": (self_s("exact_d1.p_n1"), "s"),
        "halfdeg.search_s": (spans.get("halfdeg.search", {}).get("total_s", 0.0), "s"),
        "halfdeg.patterns_per_problem": (count("halfdeg.pattern") / searches if searches
                                         else 0.0, "count"),
        "halfdeg.pattern_ms_p50": (1e3 * _percentile(patterns, 50), "ms"),
        "halfdeg.pattern_ms_p90": (1e3 * _percentile(patterns, 90), "ms"),
        "spin.state_build_s": (self_s("spin.state_build"), "s"),
        "spin.moments_s": (self_s("spin.moments"), "s"),
        "spin.witness_self_s": (self_s("spin.witness"), "s"),
        "spin.detected_frac": (spin[checks.DETECTED] / (sum(spin.values()) or 1), "fraction"),
        "trace.overhead_frac": (1.0 - worker["untraced"]["wall_s"] / traced["wall_s"],
                                "fraction"),
    }
    return out


def pattern_mismatches(worker: dict, plan: workloads.Plan) -> list[dict]:
    """Problems whose min_over_pattern calls differ from partition_count(n, 2d)."""
    per_call = worker["trace"]["patterns_per_call"]
    bad = []
    for k, idx in enumerate(worker["traced"]["order"]):
        call = plan.calls[idx]
        if call["kind"] != "halfdeg":
            continue
        row = plan.expect[call["file"]][0]
        want = oracle.partitions(row["n"], 2 * row["d"])
        if per_call.get(str(k), 0) != want:
            bad.append({"reproduce": reproducer(call["argv"]), "file": call["file"], "record": 0,
                        "reason": f"{per_call.get(str(k), 0)} patterns searched, "
                                  f"partition_count gives {want}", "times": 1})
    return bad


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            with_kernels: bool = False) -> dict:
    """One workload; ``with_kernels`` (traced runs only) also measures the
    kernel rows."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    rundir = OUT / tag
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    plan = workloads.generate(workload, seed, rundir / "in")
    (rundir / "manifest.json").write_text(json.dumps(
        {**plan.manifest(), "kernels": trace and with_kernels}))
    worker = run_worker(rundir, seconds, trace)
    outputs = worker["untraced"]["outputs"] if trace else worker["timed"]["outputs"]
    attempted, failed, failures, first = judge(plan, {**outputs, **worker["extra_outputs"]})
    if trace:
        mismatches = pattern_mismatches(worker, plan)
        failures += mismatches
        failed += len(mismatches)
        metrics = per_layer(worker, plan, first)
        durations = worker["traced"]["durations"]
    else:
        durations, setup = at_reference_speed(worker)
        metrics = end_to_end(worker, durations, setup)
        wall = end_to_end(worker, worker["timed"]["durations"], worker["setup_s"])
    p90 = _percentile(durations, 90)
    record = {
        "workload": workload, "machine": machine(trace), "seconds": seconds,
        "input": plan.input_record(), "output": output_record(plan, first),
        "calls": len(durations),
        "calls_beyond_p90": int(sum(d > p90 for d in durations)),
        "setup_samples_s": worker.get("setup_s", []),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:SHOWN_FAILURES], "failure_count": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not trace:
        speed = pace.factors(worker["timed"]["pace_s"])
        record["speed_factor"] = {"median": float(np.median(speed)),
                                  "min": float(speed.min()), "max": float(speed.max())}
        record["wall_clock_metrics"] = {k: {"value": v, "unit": u}
                                        for k, (v, u) in wall.items()}
    if "kernels" in worker:
        record["kernels"] = {k: {"value": v, "unit": kernels.ROADMAP[k][0]}
                             for k, v in worker["kernels"].items()}
        record["kernel_flags"] = kernels.flags(worker["kernels"])
    if trace:
        record["span_summary"] = {k: {kk: vv for kk, vv in v.items() if kk != "durations_s"}
                                  for k, v in worker["trace"]["spans"].items()}
        shutil.move(str(rundir / "trace.npz"), str(OUT / f"{tag}-spans.npz"))
    if failed:
        record["inputs_kept"] = str(rundir.relative_to(ROOT))
    else:
        shutil.rmtree(rundir, ignore_errors=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(rec: dict):
    print(f"workload {rec['workload']}  seed {rec['input']['seed']}  "
          f"trace {int(rec['machine']['trace'])}  "
          f"({rec['input']['records']} input records in {len(rec['input']['files'])} files)")
    for name, m in rec["metrics"].items():
        line = f"  {name:42s} {m['value']:14.6g} {m['unit']}"
        if name in rec.get("wall_clock_metrics", {}):
            line += f"  (wall clock {rec['wall_clock_metrics'][name]['value']:.6g})"
        if name == "call_ms_p90":
            line += f"  ({rec['calls']} calls, {rec['calls_beyond_p90']} beyond p90)"
        print(line)
    print(f"  {'failed_frac':42s} {rec['failed_frac']:14.6g} fraction  "
          f"({rec['failed']} of {rec['attempted']} records)")
    if "speed_factor" in rec:
        sf = rec["speed_factor"]
        print(f"  times at reference speed (pace.py); speed factor median {sf['median']:.4g},"
              f" range {sf['min']:.4g}-{sf['max']:.4g}")
    for f in rec["failures"][:5]:
        print(f"  FAILED {f['file']} record {f['record']}: {f['reason']}")
    if rec.get("inputs_kept"):
        print(f"  inputs kept for reproduction in {rec['inputs_kept']}")
    m = rec["machine"]
    print(f"  machine: {m['nproc']} cpus, {m['cpu']}, python {m['python']}, numpy "
          f"{m['numpy']}, {m['blas'].get('name')} {m['blas'].get('version')} "
          f"with {BLAS_THREADS} thread")


def print_kernels(rec: dict):
    print("kernel rows (ROADMAP item 1; once per invocation, FLAG when more than 2x off)")
    for name, m in rec["kernels"].items():
        flag = rec["kernel_flags"].get(name)
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}  "
              f"(ROADMAP {kernels.ROADMAP[name][1]:.4g}{'; FLAG ' + flag if flag else ''})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "momentcert" / "__init__.py").is_file():
        print(f"error: no momentcert package under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(w, args.seed, args.seconds, bool(args.trace), with_kernels=k == 0)
                   for k, w in enumerate(names)]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
        if "kernels" in rec:
            print_kernels(rec)
    prefix = len(records) > 1
    metrics = {}
    for r in records:
        metrics.update({(f"{r['workload']}.{k}" if prefix else k): v
                        for k, v in r["metrics"].items()})
        metrics.update(r.get("kernels", {}))     # one invocation, one set of rows
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
