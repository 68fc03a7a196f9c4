"""``src/`` forks in one place: ``cores.children`` forks, links and reaps
every child the package makes, and releases standing lanes before it
forks. A second fork site would skip all of that. The source is parsed,
not run."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gridlander"


def _fork_sites(path: Path) -> list[str]:
    """The dotted name of the function around each ``os.fork()`` (or bare
    ``fork()``) call in ``path``, from the module down."""
    sites, scope = [], [path.stem]

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "fork"
                    and isinstance(f.value, ast.Name) and f.value.id == "os") or (
                    isinstance(f, ast.Name) and f.id == "fork"):
                sites.append(".".join(scope))
            self.generic_visit(node)

    Visitor().visit(ast.parse(path.read_text(), str(path)))
    return sites


def test_src_forks_once_inside_cores_children():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [site for path in sources for site in _fork_sites(path)] == ["cores.children"]
