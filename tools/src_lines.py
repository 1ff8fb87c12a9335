"""Count the package's source lines per file, split by kind.

Run from anywhere: ``python3 tools/src_lines.py [--base DIR]``. It counts
``src/kgexplain`` of this script's own checkout. Each ``.py`` file's lines
are counted once, as the first kind that fits:

- docstring: a line of a module, class or function docstring;
- code: a line that holds a token other than a comment (a line of a
  multi-line string or bracket counts as code);
- comment: a line that holds only a comment;
- blank: an empty or whitespace-only line.

With ``--base DIR`` the table is printed for that directory too, then the
change from it, file by file, so a change can report its line delta.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(source: str) -> dict:
    """{kind: lines} for one file's source."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in docstring:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def count_dir(root: Path) -> dict:
    """{file name: {kind: lines}} for the ``.py`` files of `root`, sorted."""
    return {path.name: count_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def table(title: str, per_file: dict, signed: bool = False) -> str:
    fmt = "{:+d}" if signed else "{:d}"
    rows = [[name, *(fmt.format(c[k]) for k in KINDS), fmt.format(sum(c.values()))]
            for name, c in per_file.items()]
    totals = {k: sum(c[k] for c in per_file.values()) for k in KINDS}
    rows.append(["total", *(fmt.format(totals[k]) for k in KINDS),
                 fmt.format(sum(totals.values()))])
    header = ["file", *KINDS, "lines"]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    lines = [title] + ["  ".join([r[0].ljust(widths[0])] +
                                 [v.rjust(w) for v, w in zip(r[1:], widths[1:])])
                       for r in [header, *rows]]
    return "\n".join(lines)


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent / "src" / "kgexplain"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, default=None)
    args = parser.parse_args(argv)
    head = count_dir(here)
    print(table(str(here), head))
    if args.base is not None:
        base = count_dir(args.base)
        zero = dict.fromkeys(KINDS, 0)
        delta = {name: {k: head.get(name, zero)[k] - base.get(name, zero)[k] for k in KINDS}
                 for name in sorted(head.keys() | base.keys())}
        print()
        print(table(str(args.base), base))
        print()
        print(table(f"change from {args.base}", delta, signed=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
