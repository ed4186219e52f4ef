import ast
import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_block():
    """README's Library block runs as printed, and gives what its comments
    say: the CLReport, true checks, x = 3 EXCLUDED by gm-modular, x = 5
    OPEN and 9 runs (a comment that leads with a literal states the value
    of its line's expression)."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    ns = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md",
                                 "eval"), ns)
            values.append((lines[node.lineno - 1].partition("#")[2], value))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
    assert f"# {ns['rep']!r}" in lines
    assert [v for _, v in values] == [True, True, "EXCLUDED", "OPEN", 9]
    for comment, value in values:
        assert value is True or comment.strip().startswith(json.dumps(value))
    assert "(gm-modular)" in values[2][0]
    assert "gm-modular" in ns["report"].entry(3).rules
