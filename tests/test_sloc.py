"""tools/sloc.py: which lines count as executable, and the total it prints."""

import importlib.util
import pathlib
import textwrap

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)


def count(source: str) -> int:
    return sloc.code_lines(textwrap.dedent(source))


def test_docstrings_do_not_count():
    source = '''\
        """Module docstring,
        over two lines."""


        class A:
            """Class docstring."""

            def method(self):
                """Method docstring,

                three lines."""
                return 1


        def f():
            """Function docstring."""
            return 2


        async def g():
            """Coroutine docstring."""
            return 3
        '''
    # class, def method, return 1, def f, return 2, async def g, return 3.
    assert count(source) == 7


def test_comments_and_blank_lines_do_not_count():
    source = '''\
        # a comment

        x = 1  # a trailing comment keeps its line

            # an indented comment
        y = (1,

             2)
        '''
    # The blank line inside the brackets holds no token.
    assert count(source) == 3


def test_statement_spanning_lines_counts_each_line():
    source = '''\
        total = (1 +
                 2 +
                 3)
        text = """first

        third"""
        '''
    # Three lines of the sum and three of the string, whose blank line is
    # inside a token.
    assert count(source) == 6


def test_string_expression_after_the_first_statement_counts():
    source = '''\
        def f():
            x = 1
            """Not a docstring: the body's second statement."""
            return x
        "Not a docstring either."
        '''
    assert count(source) == 5


def test_main_total_is_the_sum_of_its_modules(capsys):
    sloc.main()
    lines = capsys.readouterr().out.splitlines()
    *modules, total = [line.split() for line in lines]
    names = sorted(p.name for p in sloc.PACKAGE.glob("*.py"))
    assert [name for _, name in modules] == names
    assert total[1] == "total"
    assert int(total[0]) == sum(int(n) for n, _ in modules)
    assert int(total[0]) == sum(
        sloc.code_lines(p.read_text(encoding="utf-8"))
        for p in sloc.PACKAGE.glob("*.py"))


@pytest.mark.parametrize("source, expected", [("", 0), ("pass\n", 1)])
def test_edge_sources(source, expected):
    assert count(source) == expected
