"""``scripts/src_lines.py``: the line counts a refactor states its net change
with."""

import ast
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""A module
docstring."""

# a comment alone

def f(x):  # a comment after code is code
    """One line."""
    s = """not a
    docstring"""
    return x
'''


def test_each_line_is_counted_as_its_kind():
    assert src_lines.count(SAMPLE) == {"code": 4, "docstring": 3, "comment-only": 1, "physical": 10}


def test_the_kinds_and_the_blank_lines_outside_docstrings_make_up_every_module():
    for path in sorted(SCRIPT.parents[1].glob("src/gridlander/*.py")):
        source = path.read_text(encoding="utf-8")
        counts, docs = src_lines.count(source), src_lines.docstring_lines(ast.parse(source))
        blank = sum(not line.strip() for i, line in enumerate(source.splitlines(), 1) if i not in docs)
        assert counts["code"] + counts["docstring"] + counts["comment-only"] + blank \
            == counts["physical"], path.name


def test_it_prints_a_row_per_module_and_a_total(capsys):
    assert src_lines.main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    modules = sorted(SCRIPT.parents[1].glob("src/gridlander/*.py"))
    assert [row.split()[0] for row in rows] == ["module", *(p.name for p in modules), "total"]


def test_a_directory_without_modules_exits_2(tmp_path, capsys):
    assert src_lines.main([str(tmp_path)]) == 2
    assert "no Python modules" in capsys.readouterr().err
