"""The README's library sketch runs on the package's exports and gives the
results its comments state."""

import ast
from pathlib import Path

from momentcert import Status, pair


def test_readme_library_sketch():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
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
