#!/usr/bin/env python3
"""
Line counts of the package source, split by kind.

Prints the code, docstring, comment and blank lines of every module of
src/specteig, then of every script of scripts/ (or of the .py files
given), one table with a row per file and a total row for each. A line is a docstring line when it lies within a statement that is a
string alone (a module, class or function docstring, or an attribute
docstring), blank lines inside it included; a comment line holds only a
comment; a blank line holds only whitespace; every other line is code,
with its trailing comment.

Usage, from the repository root:

  python3 scripts/count_lines.py
  python3 scripts/count_lines.py src/specteig/pam.py
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def count(source: str) -> dict[str, int]:
    """The lines of one module's source by kind."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docstring.update(range(node.lineno, node.end_lineno + 1))
    code, comment = set(), set()
    skip = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for k, line in enumerate(lines, start=1):
        kind = "docstring" if k in docstring else "code" if k in code \
            else "comment" if k in comment else "blank"
        # a continuation line of code holds no token but belongs to it
        if kind == "blank" and line.strip():
            kind = "code"
        counts[kind] += 1
    return counts


def table(head: str, paths) -> None:
    """Print one row per file and a total row."""
    total = dict.fromkeys(KINDS, 0)
    print(f"{head:<24}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<24}{sum(counts.values()):>7}"
              + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<24}{sum(total.values()):>7}"
          + "".join(f"{total[k]:>11}" for k in KINDS))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files to count (default: src/specteig/*.py, "
                             "then scripts/*.py)")
    args = parser.parse_args()
    if args.paths:
        table("file", args.paths)
        return
    table("module", sorted((ROOT / "src" / "specteig").glob("*.py")))
    print()
    table("script", sorted((ROOT / "scripts").glob("*.py")))


if __name__ == "__main__":
    main()
