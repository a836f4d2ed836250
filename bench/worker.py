"""Runs one workload's CLI calls in a fresh process and times each call.

Usage: python3 bench/worker.py RUNDIR SECONDS TRACE

Reads RUNDIR/manifest.json (written by run.py), calls
``momentcert.cli.main(argv)`` in-process with stdout captured, writes each
distinct stdout of a call to RUNDIR/out/ and the timings to
RUNDIR/worker.json.  It prints nothing on stdout.

TRACE 0 warms up, then runs whole cycles of the manifest's calls until the
calls have taken at least SECONDS and, unless they have taken MAX_STRETCH *
SECONDS, at least MIN_CALLS calls were made.  Between calls, at evenly spaced
points of that run (of call time or call count, whichever is reached
first), it starts SETUP_SAMPLES fresh interpreters that each make the
manifest's set-up call, so that set-up time samples the whole run rather
than one moment of it.  Each timed call and each set-up sample is followed
by reference chunks (``pace.py``), so that run.py can put every time at
reference speed.  TRACE 1 instead runs a fixed number of
cycles twice, untraced and then traced, so both commits of a comparison
trace the same records; then, if the manifest asks, it measures the kernel
rows.  Both then make the manifest's judge-only calls, untimed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import kernels
import pace
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "core", "moment_cone", "sos_cone", "exact_d1", "halfdeg", "spin")
EXIT_INPUT = 64
#: calls per timed run, so that at least ten lie beyond the 90th percentile;
#: to reach them a run may start cycles until MAX_STRETCH * SECONDS, which
#: bounds a run on a slow machine
MIN_CALLS = 100
MAX_STRETCH = 4.0
SETUP_SAMPLES = 10
SETUP_TIMEOUT_S = 60

#: one fresh interpreter: import the CLI from src/, then one call
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import momentcert.cli as cli
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit(3)
sys.exit(cli.main(sys.argv[2:]))
"""
SETUP_WRONG_PACKAGE = 3


def load_package() -> dict:
    """The momentcert modules from this checkout's src/, never another copy."""
    sys.path.insert(0, str(SRC))
    pkg = {}
    for name in MODULES:
        mod = importlib.import_module(f"momentcert.{name}")
        if not Path(mod.__file__).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"momentcert.{name} loaded from {mod.__file__}, not {SRC}")
        pkg[name] = mod
    return pkg


class Recorder:
    """Per-call timings, record counts and the distinct outputs of each call."""

    def __init__(self, calls: list[dict], outdir: Path, paced: bool = False):
        self.calls = calls
        self.outdir = outdir
        self.paced = paced
        self.durations: list[float] = []
        self.pace_s: list[list[float]] = []   # reference chunks after each call
        self.order: list[int] = []
        self.records = 0
        self.wall_s = 0.0
        self.stdout_bytes = 0
        self.witness_used = 0
        self.outputs: dict[int, dict[str, dict]] = {}

    def run(self, main, idx: int, count_witnesses: bool = False):
        out, err = io.StringIO(), io.StringIO()
        argv = self.calls[idx]["argv"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else EXIT_INPUT
            except Exception as exc:  # a crash fails the call's records
                rc = None
                err.write(repr(exc))
            dt = perf_counter() - t0
        if self.paced:
            self.pace_s.append(pace.follow(dt))
        text = out.getvalue()
        self.durations.append(dt)
        self.wall_s += dt
        self.order.append(idx)
        self.records += self.calls[idx]["records"]
        self.stdout_bytes += len(text.encode())
        if count_witnesses:
            self.witness_used += tracing.witness_payloads(text)
        self.keep(idx, text, rc, err.getvalue())

    def keep(self, idx: int, text: str, rc, stderr: str):
        """Store the output of one call of ``idx`` unless already seen."""
        seen = self.outputs.setdefault(idx, {})
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in seen:
            path = self.outdir / f"{idx}-{len(seen)}.txt"
            path.write_text(text)
            seen[digest] = {"path": str(path), "rc": rc, "count": 0,
                            "stderr": stderr[-500:]}
        seen[digest]["count"] += 1

    def result(self) -> dict:
        return {"durations": self.durations, "pace_s": self.pace_s, "order": self.order,
                "records": self.records, "wall_s": self.wall_s,
                "stdout_bytes": self.stdout_bytes, "witness_used": self.witness_used,
                "outputs": {str(k): list(v.values()) for k, v in self.outputs.items()}}


def setup_sample(argv: list[str], store: Recorder, idx: int) -> float:
    """Wall seconds of one fresh interpreter making the set-up call; its
    output is kept in ``store`` under call ``idx`` to be judged later."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), *argv],
                          cwd=ROOT, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
    dt = perf_counter() - t0
    if proc.returncode == SETUP_WRONG_PACKAGE:
        raise ImportError(f"set-up interpreter did not load momentcert from {SRC}")
    store.keep(idx, proc.stdout, proc.returncode, proc.stderr)
    return dt


def main(argv: list[str]) -> int:
    rundir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    manifest = json.loads((rundir / "manifest.json").read_text())
    pkg = load_package()
    calls, cycles = manifest["calls"], manifest["cycles"]
    outdir = rundir / "out"
    outdir.mkdir(exist_ok=True)
    cli_main = pkg["cli"].main

    warm = Recorder(calls, rundir / "warm")
    warm.outdir.mkdir(exist_ok=True)
    for idx in manifest["warmup"]:
        warm.run(cli_main, idx)

    result: dict = {}
    extra = Recorder(calls, outdir)     # set-up and judge-only outputs, untimed
    if not trace:
        setup_idx = manifest["setup_call"]
        setup_argv = calls[setup_idx]["argv"]
        setup_sample(setup_argv, Recorder(calls, warm.outdir), setup_idx)  # not kept
        setup, setup_at = [], []
        # whole cycles only, so every run times the same mix of calls
        rec = Recorder(calls, outdir, paced=True)
        cycle = 0
        while (rec.wall_s < seconds
               or (len(rec.durations) < MIN_CALLS and rec.wall_s < MAX_STRETCH * seconds)):
            for idx in cycles[cycle % len(cycles)]:
                due = len(setup) / SETUP_SAMPLES
                if len(setup) < SETUP_SAMPLES and (rec.wall_s >= due * seconds
                                                   or len(rec.durations) >= due * MIN_CALLS):
                    setup.append(setup_sample(setup_argv, extra, setup_idx))
                    setup_at.append(len(rec.pace_s))
                rec.run(cli_main, idx)
            cycle += 1
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(setup_argv, extra, setup_idx))
            setup_at.append(len(rec.pace_s))
            rec.pace_s.append(pace.follow(setup[-1]))    # the speed at the end of the run
        result["timed"] = rec.result()
        result["setup_s"] = setup
        result["setup_at"] = setup_at
    else:
        order = [idx for c in range(manifest["trace_cycles"]) for idx in cycles[c % len(cycles)]]
        plain = Recorder(calls, outdir)
        for idx in order:
            plain.run(cli_main, idx)
        tracer = tracing.Tracer()
        tracer.install(pkg)
        traced_main = tracer.span("cli.main", cli_main)
        traced = Recorder(calls, outdir)
        traced.outputs = plain.outputs          # same calls: share the output store
        for k, idx in enumerate(order):
            tracer.call_id = k
            traced.run(traced_main, idx, count_witnesses=True)
        tracer.uninstall()
        tracer.write(rundir / "trace.npz")
        result["untraced"] = plain.result()
        result["traced"] = traced.result()
        result["traced"]["outputs"] = {}
        result["trace"] = tracer.summary()
        if manifest["kernels"]:
            result["kernels"] = kernels.measure(pkg, manifest["seed"], rundir)
    for idx in manifest["judge_only"]:
        extra.run(cli_main, idx)
    result["extra_outputs"] = extra.result()["outputs"]
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (rundir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
