"""Every import in ``src`` that the linter is told to keep though unused
(``# noqa: F401``) is kept for the benchmark's tracer, which wraps package
functions at the bindings their callers use.  Each such binding must be one
that ``Tracer.install`` patches, so that a keep-alive import cannot outlive
the patch that needs it."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
MODULES = ("cli", "core", "moment_cone", "sos_cone", "exact_d1", "halfdeg", "spin")
KEEP = "# noqa: F401"


def _kept_bindings() -> tuple[set, int]:
    """(module, name) of each imported name whose line carries KEEP, and the
    number of such lines."""
    kept, lines = set(), 0
    for path in sorted((ROOT / "src" / "momentcert").glob("*.py")):
        text = path.read_text().splitlines()
        lines += sum(KEEP in line for line in text)
        for node in ast.walk(ast.parse("\n".join(text))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                kept |= {(f"momentcert.{path.stem}", alias.asname or alias.name)
                         for alias in node.names if KEEP in text[alias.lineno - 1]}
    return kept, lines


def test_every_kept_unused_import_is_a_binding_the_tracer_patches():
    kept, lines = _kept_bindings()
    assert kept and len(kept) == lines  # one imported name per marked line
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install({name: importlib.import_module(f"momentcert.{name}") for name in MODULES})
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._restore
                   if isinstance(owner, types.ModuleType)}
    finally:
        tracer.uninstall()
    assert not kept - patched, f"kept for a patch the tracer does not make: {kept - patched}"
