"""Print the line count of the package, with and without docstrings, or
the public defs that nothing in the package references.

    python3 tools/line_count.py
    python3 tools/line_count.py --uncalled

Run from anywhere; it reads ``src/thetaquant`` beside this directory.  One
row per module, then the total: the module's lines, and its lines less
those that its docstrings span (the module, class and function docstrings,
as ``ast.get_docstring`` finds them).  Comments and blank lines count as
code.

With ``--uncalled`` it prints the audit of unused public names instead: one
row per public function or method of a public class whose name no package
module other than ``__init__`` uses, as a name or an attribute, with its
line count and whether the per-layer list of ``BENCHMARK.json`` names it
(a metric ``<module>.<qualified name>.*``), then the number of such defs
and their lines.  A name is matched wherever it is used, so a method that
shares its name with a used one is not listed.
"""

import argparse
import ast
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thetaquant"


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


def public_defs(module, body, prefix=""):
    """(qualified name, name, lines) of the public functions in ``body`` and
    of the methods of its public classes."""
    for node in body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{prefix}{node.name}", node.name, node.end_lineno - node.lineno + 1
        elif isinstance(node, ast.ClassDef):
            yield from public_defs(module, node.body, f"{prefix}{node.name}.")


def uncalled():
    """(qualified name, lines, named by the benchmark) of every public def
    that no module but ``__init__`` uses."""
    defs, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defs += public_defs(path.stem, tree.body)
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    layers = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    return [(qualname, lines, any(m.startswith(qualname + ".") for m in layers))
            for qualname, name, lines in defs if name not in used]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--uncalled", action="store_true",
                    help="list the public defs that no package module uses")
    if ap.parse_args().uncalled:
        rows = uncalled()
        width = max([len("def")] + [len(name) for name, _, _ in rows])
        print(f"{'def':<{width}}  {'lines':>6}  benchmark")
        for name, lines, named in rows:
            print(f"{name:<{width}}  {lines:>6}  {'yes' if named else 'no'}")
        print(f"total: {len(rows)} defs, {sum(r[1] for r in rows)} lines")
        return
    rows = [(path.name, *counts(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'file':<{width}}  {'lines':>6}  {'no docs':>7}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>7}")


if __name__ == "__main__":
    main()
