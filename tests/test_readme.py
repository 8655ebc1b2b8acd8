"""README.md's python blocks run, in order and in one namespace, and give
the values their comments state."""

import ast
import re
from pathlib import Path

from loopnet import PathRep, bfs

README = Path(__file__).resolve().parent.parent / "README.md"

# each bare expression of the blocks, as written, and the value its comment states
STATED = {
    "diameter_circulant(g)": 2,
    "diameter_ggpg(h)": 4,
    "diameter_ggpg(h, paranoid=True)": 4,
    "render_rep(rep, g)": "(1a-, 1c2+, 2c5+, 0c8+)",
    "realize(rep, g).vertices": (0, 16, 1, 6, 11),
    "shortest_rep(g, 11)": PathRep(0, (1, 0, -1)),
    "max(dist.circ), max(from_u0 + from_v0)": (2, 4),
}


def test_readme_examples_run():
    ns, values = {}, {}
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                code = compile(ast.Expression(stmt.value), "README.md", "eval")
                values[ast.get_source_segment(block, stmt)] = eval(code, ns)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert values == STATED
    assert ns["reduce_walk"](ns["w"], ns["g"]) == ns["rep"] == PathRep(-1, (1, 2, 0))
    assert STATED["shortest_rep(g, 11)"].length == bfs(ns["g"], 0)[11] == 2
