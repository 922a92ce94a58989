"""Per-file line counts of src/iotdraw as a Markdown table; it gates nothing.

Usage: python3 .github/scripts/src_counts.py BASE FILE...

Code lines leave out blank, comment and docstring lines: what a refactor's
net decrease in src/ lines is counted in.  AST nodes are counted too:
without a bytecode cache, peak RSS follows the size of the compiled
source's syntax tree, not its code lines.  When BASE names a commit (pass
"" for none), each count is followed by its change against it, and the
files BASE has under src/iotdraw/ that are gone are listed too.
"""

import ast, io, subprocess, sys, tokenize
layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

def counts(source):
    docs, nodes = set(), 0
    for node in ast.walk(ast.parse(source)):
        nodes += 1
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docs), nodes

def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True)

if len(sys.argv) < 2:
    print("usage: python3 .github/scripts/src_counts.py BASE FILE...", file=sys.stderr)
    sys.exit(2)
base, paths = sys.argv[1], set(sys.argv[2:])
if base:  # files the pull request deletes are listed too
    listed = git("ls-tree", "--name-only", base, "src/iotdraw/").stdout.split()
    paths.update(path for path in listed if path.endswith(".py"))

# lines, code lines and AST nodes, each count with its change on a pull request
header = ("lines", "code lines", "change in code lines", "AST nodes", "change in AST nodes")
formats = ("{}", "{}", "{:+d}", "{}", "{:+d}")
shown = (0, 1, 2, 3, 4) if base else (0, 1, 3)

def row(cells, name):
    print("| " + " | ".join(formats[i].format(cells[i]) for i in shown) + f" | {name} |")

print("| " + " | ".join(header[i] for i in shown) + " | file |")
print("|" + " ---: |" * len(shown) + " --- |")
totals = [0] * 5
for path in sorted(paths):
    try:
        lines, code, nodes = counts(open(path, encoding="utf-8").read())
    except FileNotFoundError:
        lines, code, nodes = 0, 0, 0
    old = (0, 0, 0)
    if base:
        at_base = git("show", f"{base}:{path}")
        if at_base.returncode == 0:
            old = counts(at_base.stdout)
    cells = (lines, code, code - old[1], nodes, nodes - old[2])
    totals = [total + cell for total, cell in zip(totals, cells)]
    row(cells, path)
row(totals, "total")
