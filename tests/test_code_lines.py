"""``tools/code_lines.py`` counts a fixture module with a known answer."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not stop the line counting


# a comment on a line of its own
class Thing:
    """Class docstring."""

    LIMIT = 3

    def method(self):
        """Function docstring
        over two lines.
        """
        text = """a multi-line string,
not a docstring"""
        return text + os.sep


async def later():
    \'\'\'Async function docstring.\'\'\'
    """a bare string after the first statement is code"""
    return (
        1
    )
'''
# import, class, LIMIT, def, the two lines of text, return; async def, the
# bare string, and the three lines of the parenthesized return
EXPECTED = 12


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_outside_comments_blank_lines_and_docstrings(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert load_tool().code_lines(path) == EXPECTED


def test_reports_each_module_and_the_directory_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    for name in ("a.py", "b.py"):
        (tmp_path / "pkg" / name).write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    directory = str(tmp_path / "pkg")
    assert load_tool().main([directory]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(EXPECTED), str(tmp_path / "pkg" / "a.py")],
        [str(EXPECTED), str(tmp_path / "pkg" / "b.py")],
        [str(2 * EXPECTED), directory, "(total)"],
    ]
