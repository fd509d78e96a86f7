"""Statements of ``src/riskseq`` that the tier-1 tests never run.

Runs the tier-1 command (``python -m pytest -q --continue-on-collection-errors``
over ``tests/``, with ``src`` on the path) with a line tracer
(``sys.settrace`` and ``threading.settrace``) in the pytest process and in
every Python child process it starts: a temporary ``sitecustomize.py`` put
first on ``PYTHONPATH`` installs the tracer at interpreter start-up, and
each process writes the lines it ran to a temporary directory when it
exits. Needs only the standard library.

Prints ``src/riskseq/<file>:<line>: <code>`` for each statement that never
ran, after pytest's own output, and exits with pytest's status. A compound
statement (``if``, ``for``, ``def``, ...) counts as run when any line of
its header runs; docstrings and ``global``/``nonlocal`` declarations are
not statements here. A child process that ends without running its
``atexit`` handlers (``os._exit``, a signal) reports nothing.

pytest runs in a temporary directory with its cache and byte-code writing
off, so the tool writes nothing inside the repository. Tracing makes the
suite slower: 270-330 s against about 155 s untraced on a 2-CPU Xeon.

Usage, from anywhere:

    python3 tools/untested_lines.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "riskseq")

# Installed in every traced process; records the lines run in files under
# UNTESTED_LINES_PACKAGE and writes them, as JSON, to a new file in
# UNTESTED_LINES_OUT at exit.
_SITECUSTOMIZE = '''
import atexit, json, os, sys, tempfile, threading

def _install(package, out):
    hits = {}  # real path -> set of line numbers run
    tracers = {}  # code file name -> its local tracer, or None

    def local_for(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = os.path.realpath(name)
            tracers[name] = (local_for(hits.setdefault(path, set()))
                             if path.startswith(package + os.sep) else None)
        return tracers[name]

    def dump():
        sys.settrace(None)
        fd, _ = tempfile.mkstemp(suffix=".json", dir=out)
        with os.fdopen(fd, "w") as fh:
            json.dump({path: sorted(lines) for path, lines in hits.items()}, fh)

    atexit.register(dump)
    threading.settrace(tracer)
    sys.settrace(tracer)

if os.environ.get("UNTESTED_LINES_OUT"):
    _install(os.environ["UNTESTED_LINES_PACKAGE"], os.environ["UNTESTED_LINES_OUT"])
'''


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per file, the lines any traced process ran."""
    with tempfile.TemporaryDirectory() as tmp:
        site, out = os.path.join(tmp, "site"), os.path.join(tmp, "out")
        os.makedirs(site)
        os.makedirs(out)
        with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
            fh.write(_SITECUSTOMIZE)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (site, os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
                if p
            ),
            PYTHONDONTWRITEBYTECODE="1",
            UNTESTED_LINES_OUT=out,
            UNTESTED_LINES_PACKAGE=os.path.realpath(PACKAGE),
        )
        command = [
            sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider", "-c", os.path.join(ROOT, "pyproject.toml"),
            "--rootdir", ROOT, os.path.join(ROOT, "tests"),
        ]
        status = subprocess.call(command, env=env, cwd=tmp)
        hits: dict[str, set[int]] = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as fh:
                for path, lines in json.load(fh).items():
                    hits.setdefault(path, set()).update(lines)
    return status, hits


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring statements of the module and its defs and classes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first))
    return out


def statement_lines(source: str) -> list[tuple[int, range]]:
    """Each statement's first line and the lines whose events count as its
    running: a compound statement's header (decorators included), or all of
    a simple statement."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in skip
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:  # compound: the header only
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            last = max(node.lineno, body[0].lineno - 1)
        else:
            first, last = node.lineno, node.end_lineno
        out.append((node.lineno, range(first, last + 1)))
    return sorted(out, key=lambda item: item[0])


def untested(hits: dict[str, set[int]]) -> list[str]:
    """``src/riskseq/<file>:<line>: <code>`` for each statement never run."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        ran = hits.get(os.path.realpath(path), set())
        lines = source.splitlines()
        for lineno, counted in statement_lines(source):
            if ran.isdisjoint(counted):
                out.append(f"src/riskseq/{name}:{lineno}: {lines[lineno - 1].strip()}")
    return out


def main() -> int:
    status, hits = run_traced()
    report = untested(hits)
    for line in report:
        print(line)
    print(f"{len(report)} statements under src/riskseq never ran", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
