"""The README's library sketch runs on the package's exports and gives the
results its comments state, every module attribute the README names exists,
and every public name of the package has a user outside the tests."""

import ast
import importlib
import re
from pathlib import Path

from momentcert import Status, pair

ROOT = Path(__file__).parent.parent


def test_readme_library_sketch():
    readme = (ROOT / "README.md").read_text()
    sketch = readme.split("```python\n", 1)[1].split("```", 1)[0]
    ns, shown = {}, []
    for stmt in ast.parse(sketch).body:
        if isinstance(stmt, ast.Expr):  # a bare expression: the value its comment states
            shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert shown == [1, "EntanglementDetected"]
    assert ns["verdict"].status is Status.MEMBER and ns["verdict"].witness
    assert ns["val"] >= 0.0
    assert ns["v"].status is Status.NON_MEMBER
    assert pair(ns["sep"], ns["m"]) < 0.0


def _code_spans(root: Path = ROOT) -> list[str]:
    """The code spans and code blocks of the README."""
    return re.findall(r"```.*?```|`[^`\n]+`", (root / "README.md").read_text(), re.S)


def test_every_module_attribute_named_in_the_readme_exists():
    """A code span or block naming ``module.X`` (or ``momentcert.module.X``)
    of a package module names an attribute of that module, so a deleted
    constant or function cannot stay documented."""
    modules = sorted(p.stem for p in (ROOT / "src" / "momentcert").glob("*.py")
                     if p.stem != "__init__")
    dotted = re.compile(rf"(?<![\w/.])(?:momentcert\.)?({'|'.join(modules)})\.(\w+)")
    named = {m for span in _code_spans() for m in dotted.findall(span)}
    assert len(named) >= 10  # the scan sees the README's names
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"momentcert.{module}"), name)]
    assert not missing, f"the README names attributes that do not exist: {missing}"


#: public names that nothing reaches yet, each kept for the ROADMAP item that
#: gives it a user
WAITING = {
    "core.evaluate": "item 1: re-evaluates each P NonMember configuration",
    "core.power_sums": "item 1: evaluate calls it",
    "core.moments_of_configuration": "items 4 and 13: measure_moments calls it",
    "measures.AtomicMeasure": "items 4 and 13: a C Member's representing measure",
    "measures.measure_moments": "items 4 and 13: a C Member's representing measure",
    "moment_cone.lmi_dual_feasibility": "item 17: bench/tracing.py patches it by name",
    "moment_cone.sufficient_condition": "item 17: bench/tracing.py patches it by name",
}


def _names(tree: ast.AST) -> set:
    """The names and attribute names that ``tree`` refers to."""
    return {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}


def unreached_names(root: Path = ROOT) -> set:
    """The public top-level functions and classes of the package under
    ``root`` that no use reaches.  A use is a reference in the AST of code
    that ``cli.main`` reaches (module-level statements count as reached), a
    name in the AST of a ``bench/*.py`` file, or a word in a README code span
    or code block; a definition that a use reaches passes its own references
    on.  ``__all__`` entries (strings), imports and README prose are not
    uses."""
    defs, todo = {}, {"main"}
    for path in (root / "src" / "momentcert").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
            else:
                todo |= _names(stmt)
    for path in (root / "bench").glob("*.py"):
        todo |= _names(ast.parse(path.read_text()))
    for span in _code_spans(root):
        todo |= set(re.findall(r"\w+", span))
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, stmt in defs.get(name, ()):
            todo |= _names(stmt) - reached
    return {f"{module}.{name}" for name in defs.keys() - reached if not name.startswith("_")
            for module, _ in defs[name]}


def test_every_public_name_in_src_has_a_user_outside_the_tests():
    """What only the tests call belongs in ``tests/reference_forms.py``; a
    name in WAITING must stay unreached, so the list cannot go stale."""
    unreached = unreached_names()
    assert not unreached - WAITING.keys(), f"used only by the tests: {unreached - WAITING.keys()}"
    assert not WAITING.keys() - unreached, f"waiting, but reached: {WAITING.keys() - unreached}"
