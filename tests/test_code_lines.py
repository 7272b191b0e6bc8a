import importlib.util

from .conftest import ROOT

SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment on a code line

# a comment line


def f(x):
    """A function docstring."""
    y = (x +
         1)
    return y


class C:
    """A class docstring
    over two lines."""

    text = """a string that
is not a docstring"""
'''


def test_counts_token_lines_outside_comments_and_docstrings():
    # import, def, the two lines of y, return, class, the two lines of text
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_file_and_the_total_of_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     8  {tmp_path / 'a.py'}",
        f"     1  {tmp_path / 'sub' / 'b.py'}",
        f"     9  total {tmp_path}"]
