"""Count the code lines of a Python package, or compare two packages.

    python tools/loc.py [PACKAGE_DIR]     (default: src/dopptrack)
    python tools/loc.py OLD_PKG NEW_PKG

A code line holds at least one token of code. Blank lines, lines that hold
only a comment, and the lines of module, class and function docstrings do not
count; every line of any other multi-line statement or string does. Prints
the count of each module, then the total. Given two packages, it prints for
each module its count in OLD_PKG and in NEW_PKG (0 where it is missing) and
the difference, OLD_PKG's modules first, then the totals.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count_package(root: str) -> dict[str, int]:
    """{module path relative to root: code lines} for every .py file under
    root, in sorted order."""
    counts = {}
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as f:
                    counts[os.path.relpath(path, root)] = code_lines(f.read())
    return counts


def print_difference(old_root: str, new_root: str) -> None:
    """One line per module of either package: old count, new count and
    their difference; then the same for the totals."""
    old, new = count_package(old_root), count_package(new_root)
    rows = [(old.get(m, 0), new.get(m, 0), m) for m in {**old, **new}]
    rows.append((sum(old.values()), sum(new.values()), "total"))
    print("%6s  %6s  %6s  %s" % ("old", "new", "diff", "module"))
    for before, after, module in rows:
        print("%6d  %6d  %+6d  %s" % (before, after, after - before, module))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2:
        print_difference(*args)
        return 0
    root = args[0] if args else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "dopptrack")
    counts = count_package(root)
    for module, count in counts.items():
        print("%6d  %s" % (count, module))
    print("%6d  total" % sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
