"""Spans around the package's public functions, recorded from outside.

The traced run wraps each function at the binding its caller uses (for
example ``cli.classify`` and ``moment_cone.sigma_membership_lmi``), records
one span per call (name, start, end, parent, call id) in memory and writes
them out when the run ends.  Nothing under ``src/`` is changed; the wrappers
are removed again with ``Tracer.uninstall``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

#: top-level witness conversions, a part of serialization
WITNESS = "cli.witness_jsonable"


class _JsonProxy:
    """Stands in for the ``json`` module inside ``cli`` so that ``json.load``
    (the state-file loader of ``spin``) gets a span; all else passes through."""

    def __init__(self, module, load):
        self._module = module
        self.load = load

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.call: list[int] = []
        self.stack = [-1]
        self.call_id = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, top_only: bool = False):
        """``fn`` wrapped to record a span; with ``top_only`` a call nested in
        a span of the same name (recursion) is not recorded again."""
        nid = self._id(name)
        names, starts, ends, parents, calls, stack = (
            self.name, self.start, self.end, self.parent, self.call, self.stack)

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top_only and top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(top)
            calls.append(self.call_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, mode: str = "span"):
        raw = vars(owner)[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if mode == "count":
            wrapped = self.counter(name, fn)
        else:
            wrapped = self.span(name, fn, top_only=(mode == "top"))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._restore.append((owner, attr, raw))

    def install(self, pkg):
        """Wrap the package's public functions at their callers' bindings.

        ``pkg`` maps module short names (cli, core, ...) to module objects.
        """
        cli, core, mc, sos, hd, spin = (pkg[k] for k in (
            "cli", "core", "moment_cone", "sos_cone", "halfdeg", "spin"))
        for attr in ("_load_moment_rows", "_parse_moment_csv", "_load_poly_rows"):
            self.patch(cli, attr, "cli.parse")
        self.patch(spin.SymmetricState, "from_json_dict", "cli.parse")
        self._restore.append((cli, "json", cli.json))
        cli.json = _JsonProxy(cli.json, self.span("cli.parse", cli.json.load))
        self.patch(cli, "_witness_jsonable", WITNESS, mode="top")
        for attr in ("_emit_verdicts", "_json_out"):
            self.patch(cli, attr, "cli.serialize")
        self.patch(spin.WitnessReport, "to_json_dict", "cli.serialize")
        for cls in (core.ProblemDims, core.MomentVector, core.SymmetricQuadratic):
            self.patch(cls, "__init__", "core.construct")
        self.patch(core.MomentVector, "moment_scale", "core.scale", mode="count")
        self.patch(core.SymmetricQuadratic, "coeff_scale", "core.scale", mode="count")
        self.patch(cli, "classify", "moment_cone.classify")
        for owner, attr in ((mc, "necessary_condition"), (mc, "sufficient_condition"),
                            (spin, "sufficient_condition")):
            self.patch(owner, attr, "moment_cone.condition")
        for attr in ("lmi_dual_feasibility", "separating_polynomial"):
            self.patch(mc, attr, "moment_cone.witness")
        self.patch(cli, "sigma_membership_lmi", "sos_cone.lmi")
        self.patch(mc, "sigma_membership_lmi", "sos_cone.lmi")
        self.patch(cli, "ellipsoid_quadratic_min", "sos_cone.ellipsoid")
        self.patch(sos, "sos_witness", "sos_cone.witness")
        self.patch(cli, "p_n1_membership", "exact_d1.p_n1")
        self.patch(cli, "reduced_global_min", "halfdeg.search")
        self.patch(hd, "min_over_pattern", "halfdeg.pattern")
        self.patch(cli, "entanglement_witness", "spin.witness")
        self.patch(spin, "spin_moments", "spin.moments")
        self.patch(spin.SymmetricState, "__init__", "spin.state_build")

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -----------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int64),
                "call": np.array(self.call, dtype=np.int64)}

    def write(self, path: Path):
        """Spans as arrays plus the name table, written once at the end."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: count, total (inclusive) and self seconds, and the
        inclusive durations of pattern searches; plus per-call span counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        own = dur - child[:dur.size]
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {"count": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        pattern = self._ids.get("halfdeg.pattern")
        per_call = {}
        if pattern is not None:
            sel = a["name"] == pattern
            out["halfdeg.pattern"]["durations_s"] = dur[sel].tolist()
            per_call = Counter(a["call"][sel].tolist())
        return {"spans": out, "counts": dict(self.counts),
                "patterns_per_call": {str(k): v for k, v in per_call.items()}}


def witness_payloads(text: str) -> int:
    """Witness payloads that reached stdout: non-null ``witness`` values."""
    if not text.lstrip().startswith("{"):
        return 0

    def count(obj):
        if isinstance(obj, dict):
            return sum((k == "witness" and v is not None) + count(v) for k, v in obj.items())
        if isinstance(obj, list):
            return sum(count(v) for v in obj)
        return 0

    try:
        return count(json.loads(text))
    except ValueError:
        return 0
