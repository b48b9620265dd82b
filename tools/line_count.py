"""Print the line count of the package, with and without docstrings.

    python3 tools/line_count.py

Run from anywhere; it reads ``src/thetaquant`` beside this directory.  One
row per module, then the total: the module's lines, and its lines less
those that its docstrings span (the module, class and function docstrings,
as ``ast.get_docstring`` finds them).  Comments and blank lines count as
code.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "thetaquant"


def docstring_lines(tree):
    """The number of source lines that the docstrings of ``tree`` span."""
    owners = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    spans = [node.body[0] for node in owners if ast.get_docstring(node) is not None]
    return sum(s.end_lineno - s.lineno + 1 for s in spans)


def counts(path):
    """(lines, lines without docstrings) of one source file."""
    text = path.read_text()
    lines = len(text.splitlines())
    return lines, lines - docstring_lines(ast.parse(text))


def main():
    rows = [(path.name, *counts(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'file':<{width}}  {'lines':>6}  {'no docs':>7}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>7}")


if __name__ == "__main__":
    main()
