"""Kernel rows: single-layer timings next to the figures ROADMAP item 1 gives.

Each row times one public function directly on seeded Gaussian inputs,
except the corpus rows, which time the CLI on a 10k-row check-moments file.
A row that differs from its ROADMAP figure by more than 2x either way is
flagged, never tuned away.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

#: name -> (unit, ROADMAP figure); the halfdeg rows are reduced / brute force
ROADMAP = {
    "sos_cone.lmi_us": ("us", 11.0),
    "sos_cone.ellipsoid_us": ("us", 52.0),
    "moment_cone.necessary_us": ("us", 21.0),
    "moment_cone.classify_us": ("us", 156.0),
    "core.quadratic_us": ("us", 10.0),
    "moment_cone.max_form_batch_ns_per_row": ("ns/row", 68.0),
    "spin.witness_n32_ms": ("ms", 0.5),
    "spin.witness_n512_ms": ("ms", 143.0),
    "halfdeg.reduced_vs_bruteforce_n4_d2": ("ratio", 187.0 / 26.0),
    "halfdeg.reduced_vs_bruteforce_n6_d3": ("ratio", 363.0 / 12.0),
    "halfdeg.reduced_vs_bruteforce_n10_d3": ("ratio", 1740.0 / 49.0),
    "cli.corpus_text_us_per_row": ("us/row", 152.0),
    "cli.corpus_json_us_per_row": ("us/row", 214.0),
    "cli.corpus_json_bytes_per_row": ("bytes/row", 1270.0),
}
CORPUS_ROWS = 10_000
REPEATS = 5


def _per_call(fn, inputs, repeats: int = REPEATS) -> float:
    """Median over repeats of the mean seconds per call over ``inputs``."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for x in inputs:
            fn(x)
        times.append((perf_counter() - t0) / len(inputs))
    return statistics.median(times)


def measure(pkg, seed: int, scratch: Path) -> dict[str, float]:
    """Every kernel row, in the units of ``ROADMAP``."""
    core, mc, sos, hd, spin, cli = (pkg[k] for k in (
        "core", "moment_cone", "sos_cone", "halfdeg", "spin", "cli"))
    rng = np.random.default_rng([seed, 99])
    dims = core.ProblemDims(8, 3)
    raw = [(float(rng.normal()), rng.normal(size=3), rng.normal(size=3)) for _ in range(256)]
    polys = [core.SymmetricQuadratic(dims, *r) for r in raw]
    moments = [core.MomentVector(dims, 1.0, r[1], r[2]) for r in raw]
    out = {
        "sos_cone.lmi_us": 1e6 * _per_call(sos.sigma_membership_lmi, polys),
        "sos_cone.ellipsoid_us": 1e6 * _per_call(sos.ellipsoid_quadratic_min, polys),
        "moment_cone.necessary_us": 1e6 * _per_call(mc.necessary_condition, moments),
        "moment_cone.classify_us": 1e6 * _per_call(mc.classify, moments),
        "core.quadratic_us": 1e6 * _per_call(
            lambda r: core.SymmetricQuadratic(dims, *r), raw),
    }
    batch = 100_000
    z0 = np.abs(rng.normal(size=batch)) + 0.5
    z, zz = rng.normal(size=(batch, 3)), rng.normal(size=(batch, 3))
    out["moment_cone.max_form_batch_ns_per_row"] = 1e9 / batch * _per_call(
        lambda _: mc.max_form_residual_batch(z0, z, zz, 8), [None])
    for n, reps in ((32, 20), (512, 3)):
        state = spin.random_state(n, seed)
        out[f"spin.witness_n{n}_ms"] = 1e3 * _per_call(
            spin.entanglement_witness, [state] * reps, repeats=1)
    for n, d in ((4, 2), (6, 3), (10, 3)):
        q = core.SymmetricQuadratic(core.ProblemDims(n, d), float(rng.normal()),
                                    rng.normal(size=d), rng.normal(size=d))
        reduced = _per_call(hd.reduced_global_min, [q], repeats=1)
        brute = _per_call(hd.full_bruteforce_min, [q], repeats=3)
        out[f"halfdeg.reduced_vs_bruteforce_n{n}_d{d}"] = reduced / brute
    # the ROADMAP corpus: 10k check-moments rows at n = 16, d = 3
    rows = workloads.moment_rows(rng, [16] * CORPUS_ROWS, 3,
                                  workloads.moment_targets(rng, CORPUS_ROWS))
    path = scratch / "corpus.csv"
    path.write_text(workloads.moments_csv(rows))
    for output in ("text", "json"):
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            cli.main(["--output", output, "check-moments", "--file", str(path)])
        out[f"cli.corpus_{output}_us_per_row"] = 1e6 * (perf_counter() - t0) / CORPUS_ROWS
        if output == "json":
            out["cli.corpus_json_bytes_per_row"] = len(buf.getvalue().encode()) / CORPUS_ROWS
    path.unlink()
    return out


def flags(rows: dict[str, float]) -> dict[str, str]:
    """Rows more than 2x away from their ROADMAP figure, with the factor."""
    out = {}
    for name, value in rows.items():
        ratio = value / ROADMAP[name][1]
        if not 0.5 <= ratio <= 2.0:
            out[name] = f"{ratio:.2f}x ROADMAP"
    return out
