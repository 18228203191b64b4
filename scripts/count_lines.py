#!/usr/bin/env python3
"""Count the lines of each module of ``src/corecover`` by kind.

Every line is counted once, as the first of these kinds that it belongs to:

- docstring: inside the docstring of a module, class or function (the
  string that opens its body), found with ``ast``;
- code: holds a token other than a comment, found with ``tokenize`` (a
  line of a string that is no docstring is code, a code line with a
  trailing comment too);
- comment: holds a comment and nothing else;
- blank: everything else.

Prints one row per module and a total row; the columns add up to the
total. Uses only the standard library, and prints only: it checks nothing.

Usage: python scripts/count_lines.py
"""

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "corecover"
KINDS = ("docstring", "code", "comment", "blank")
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> dict:
    source = path.read_text(encoding="utf-8")
    total = len(source.splitlines())
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docs
    comments -= docs | code
    counts = {"total": total, "docstring": len(docs), "code": len(code), "comment": len(comments)}
    counts["blank"] = total - len(docs) - len(code) - len(comments)
    return counts


def main() -> int:
    columns = ("total",) + KINDS
    rows = [(path.name, count(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", {c: sum(counts[c] for _, counts in rows) for c in columns}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in columns))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{counts[c]:>11}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
