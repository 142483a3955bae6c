"""List the statements inside ``src/`` functions that the tier-1 suite never runs.

Runs the tier-1 tests (``tests/``) in this process under a ``sys.settrace``
line tracer, then walks every module under ``src/`` with ``ast``: each
statement inside a function (nested functions and their classes included,
docstrings excluded) counts, and it is reached when a line event fired at
its first line.  Prints one ``path:line: source`` line per unreached
statement, then the count.  Standard library only, apart from pytest,
which runs the suite.  Exits non-zero when the suite fails or, given
``--max N``, when more than N statements are unreached.

    python tools/unreached.py            # the whole tier-1 suite
    python tools/unreached.py --max 7    # fail above 7 unreached statements
    python tools/unreached.py -- -k cli  # extra arguments go to pytest

Under the tracer the suite runs about three times slower than without it.
"""

import argparse
import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _statements(tree):
    """The first line of each statement inside a function of ``tree``."""
    lines = set()

    def walk(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                if inside and not _is_docstring(node, child):
                    lines.add(child.lineno)
                walk(child, inside or is_def)
            else:
                walk(child, inside)

    walk(tree, False)
    return lines


def _is_docstring(parent, node):
    body = getattr(parent, "body", None)
    return (isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and body and body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _trace_suite(pytest_args):
    """Run pytest under the line tracer: its exit code and the lines seen per file."""
    import pytest

    prefix = str(SRC) + "/"
    seen = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def glob(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            seen[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(SRC))
    threading.settrace(glob)
    sys.settrace(glob)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                            *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, seen


def main(argv):
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max", type=int, default=None, metavar="N",
                        help="exit 1 when more than N statements are unreached")
    args = parser.parse_args(argv[:split])
    code, seen = _trace_suite(argv[split + 1:])
    total, unreached = 0, []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        lines = _statements(ast.parse(text))
        total += len(lines)
        ran = seen.get(str(path), set())
        unreached += [(path.relative_to(ROOT), n, source[n - 1].strip())
                      for n in sorted(lines - ran)]
    for path, n, text in unreached:
        print("%s:%d: %s" % (path, n, text))
    print("%d of %d statements inside src/ functions unreached (pytest exit %d)"
          % (len(unreached), total, code))
    if args.max is not None and len(unreached) > args.max:
        print("more than the %d allowed" % args.max)
        return 1
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
