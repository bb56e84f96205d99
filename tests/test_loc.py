"""tools/loc.py: code lines leave out blanks, comments and docstrings."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SNIPPET = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment


def f(a,
      b):
    """A function docstring."""
    x = {"a": a,

         "b": b}
    return x


class C:
    """A class docstring
    over two lines."""
    y = """a string that is
    not a docstring"""
'''
# 9 code lines: import os; both lines of def f; the two lines of x = {...}
# that hold tokens; return x; class C:; both lines of y's string


@pytest.fixture
def loc():
    spec = importlib.util.spec_from_file_location("loc", os.path.join(ROOT, "tools", "loc.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_counts_code_lines_only(loc):
    assert loc.count(SNIPPET) == 9


def test_prints_each_module_and_the_total(loc, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     9  a.py", "     1  b.py", "    10  total", ""]
