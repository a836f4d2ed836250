"""The README's library sketch runs on the package's exports and gives the
results its comments state, and every public name of the package has a user
outside the tests."""

import ast
import re
from pathlib import Path

import momentcert
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


def test_every_public_name_in_src_has_a_user_outside_the_tests():
    """A public top-level function or class of the package is referenced
    elsewhere in ``src`` (an AST name or attribute outside its definition), is
    in ``__all__`` or is named in ``bench/*.py`` or the README: what only the
    tests call belongs in ``tests/reference_forms.py``."""
    defined, used = {}, set(momentcert.__all__)
    for path in (ROOT / "src" / "momentcert").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = f"{path.stem}.{own}"
            used |= {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(stmt)} - {own}
    for path in [ROOT / "README.md", *(ROOT / "bench").glob("*.py")]:
        used |= set(re.findall(r"\w+", path.read_text()))
    unused = sorted(defined[name] for name in defined.keys() - used)
    assert not unused, f"used only by the tests: {unused}"
