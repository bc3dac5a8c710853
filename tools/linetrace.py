"""List the lines of ``src/ramangn`` that a pytest run, or the CLI's own
commands, never execute.

Run from the repository root:

    python tools/linetrace.py            # the tier-1 suite
    python tools/linetrace.py tests/test_domain.py -x
    python tools/linetrace.py --commands
    python tools/linetrace.py --commands DIR
    python tools/linetrace.py --commands --manifest tests/data/commands.json

Arguments go to pytest unchanged (default ``-q``; the test paths come
from ``pyproject.toml``).  With ``--commands``, no test runs:
``ramangn.cli.main`` runs ``solve``, ``fit``, ``nli`` and ``sweep
--sweep=-2:2:1`` on every scenario in ``tests/data`` (each JSON file with
a ``span``) and ``compare`` on ``minimal.json``, ``lumped_9ch.json`` and
``lumped_9ch_3span.json`` (per-span powers and a coherence exponent).
Each command writes into its own directory ``<scenario>/<command>/``,
under ``DIR`` if given, which keeps the files, else under a temporary
directory.  ``diff -r`` of two such ``DIR`` trees, made from two versions
of the code, compares every output byte for byte.  Each command's exit
status is printed in place of its output.  With ``--manifest PATH``,
the digests of every command's output (``command_digests``) are written
to ``PATH`` as JSON; ``tests/test_commands.py`` checks the stored
``tests/data/commands.json`` against an untraced run.  What these leave
unrun is the code that only tests, library calls and refusals reach.
Either way the code runs in this process under ``sys.settrace``; only
frames of code in ``src/ramangn`` are traced line by line.  A line is
executable when some code object compiled from the file lists it in
``co_lines()``.  Every executable line that never ran is printed as
``path:line: source``, then a count.  Child processes get ``src`` on
their ``PYTHONPATH`` but are not traced: code they alone run counts as
not run.

Exit status: pytest's, if it is not 0; else 1 if some line never ran;
else 0.  The traced suite takes about 1.5 times as long.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ramangn")
DATA = os.path.join(ROOT, "tests", "data")


def executable_lines(path: str) -> set:
    """Line numbers that some code object compiled from ``path`` runs."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line > 0)
        todo.extend(c for c in code.co_consts
                    if isinstance(c, types.CodeType))
    return lines


class LineTrace:
    """pytest plugin: records the lines run in ``PACKAGE`` until the
    session ends."""

    def __init__(self):
        self.hits = {}      # real path -> set of line numbers run
        self._local = {}    # co_filename -> local trace function or None

    def _tracer(self, filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(PACKAGE + os.sep):
            return None
        hit = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            hit.add(frame.f_lineno)
            return local
        return local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            local = self._local[name]
        except KeyError:
            local = self._local[name] = self._tracer(name)
        if local is None:
            return None
        return local(frame, event, arg)  # the call event's own line

    def start(self):
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def pytest_sessionfinish(self, session, exitstatus):
        self.stop()

    def unrun(self):
        """([(path, line, source)] of every executable line never run,
        the number of executable lines)."""
        out, total = [], 0
        for name in sorted(os.listdir(PACKAGE)):
            if not name.endswith(".py"):
                continue
            path = os.path.join(PACKAGE, name)
            lines = executable_lines(path)
            total += len(lines)
            missed = lines - self.hits.get(os.path.realpath(path), set())
            with open(path, encoding="utf-8") as fh:
                source = fh.read().splitlines()
            out.extend((path, line, source[line - 1].strip())
                       for line in sorted(missed))
        return out, total


def commands() -> list:
    """The CLI argument lists of ``--commands``, without ``--out``."""
    scenarios = []
    for name in sorted(os.listdir(DATA)):
        if name.endswith(".json"):
            with open(os.path.join(DATA, name), encoding="utf-8") as fh:
                if "span" in json.load(fh):
                    scenarios.append(os.path.join("tests", "data", name))
    runs = [cmd + ["--scenario", path] for path in scenarios
            for cmd in (["solve"], ["fit"], ["nli"],
                        ["sweep", "--sweep=-2:2:1"])]
    return runs + [["compare", "--scenario",
                    os.path.join("tests", "data", name)]
                   for name in ("minimal.json", "lumped_9ch.json",
                                "lumped_9ch_3span.json")]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# compare prints its oracle's wall time, "(0.3 s)"
_ELAPSED = re.compile(r"\(\d+\.\d s\)")


def run_command(argv, out: str) -> dict:
    """Run one argument list of ``commands()`` through ``ramangn.cli.main``
    into the directory ``out``.  Returns its exit status and the SHA-256
    digests of its stdout and stderr, with ``out`` replaced by ``<out>``
    and compare's elapsed seconds by ``(<elapsed> s)``, and of every file
    it wrote, by its name relative to ``out``."""
    from ramangn.cli import main as cli_main

    os.makedirs(out, exist_ok=True)
    streams = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(streams[0]), \
            contextlib.redirect_stderr(streams[1]):
        status = cli_main(list(argv) + ["--out", out])
    stdout, stderr = (_ELAPSED.sub("(<elapsed> s)", s.getvalue().replace(
        out, "<out>")).encode("utf-8") for s in streams)
    files = {}
    for top, _, names in os.walk(out):
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = _digest(fh.read())
    return {"exit": status, "stdout": _digest(stdout),
            "stderr": _digest(stderr), "files": dict(sorted(files.items()))}


def command_digests(root: str) -> dict:
    """``run_command`` of every argument list of ``commands()``, each into
    ``<root>/<scenario>/<command>/``, keyed by the argument list joined
    with spaces.  The scenario paths are relative to ``ROOT``, which must
    be the working directory."""
    digests = {}
    for argv in commands():
        scenario = os.path.splitext(os.path.basename(argv[-1]))[0]
        digests[" ".join(argv)] = run_command(
            argv, os.path.join(root, scenario, argv[0]))
    return digests


def run_commands(trace: LineTrace, keep=None, manifest=None) -> None:
    """Run ``commands()`` through ``ramangn.cli.main`` under the trace, each
    into ``<scenario>/<command>/`` under the directory ``keep``, or under a
    temporary one if ``keep`` is None, and write their digests as JSON to
    ``manifest`` if given."""
    keep = keep and os.path.abspath(keep)
    manifest = manifest and os.path.abspath(manifest)
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as scratch:
        trace.start()
        try:
            digests = command_digests(keep or scratch)
        finally:
            trace.stop()
    for command, entry in digests.items():
        print(f"exit {entry['exit']}: ramangn {command}")
    if manifest:
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1)
            fh.write("\n")


def main(argv) -> int:
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    trace = LineTrace()
    if list(argv[:1]) == ["--commands"]:
        parser = argparse.ArgumentParser(prog="linetrace.py --commands")
        parser.add_argument("dir", nargs="?")
        parser.add_argument("--manifest")
        opts = parser.parse_args(argv[1:])
        run_commands(trace, opts.dir, opts.manifest)
        status = 0
    else:
        trace.start()
        try:
            status = int(pytest.main(list(argv) or ["-q"], plugins=[trace]))
        finally:  # pytest may end before the session does
            trace.stop()
    unrun, total = trace.unrun()
    for path, line, text in unrun:
        print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
    print(f"{len(unrun)} of {total} executable lines in "
          f"{os.path.relpath(PACKAGE, ROOT)} never ran")
    return status or int(bool(unrun))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
