"""Every output of the CLI's stored commands, byte for byte.

``tools/linetrace.py --commands`` runs ``solve``, ``fit``, ``nli`` and
``sweep`` on every scenario in ``tests/data`` and ``compare`` on three of
them.  ``tests/data/commands.json`` stores each command's exit status and
the SHA-256 digests of its stdout, its stderr and every file it writes;
``python tools/linetrace.py --commands --manifest tests/data/commands.json``
re-stores it.  A change that moves a byte re-stores the manifest and says
which digests moved, and why.
"""

import importlib.util
import json
import os

from conftest import DATA_DIR

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _linetrace():
    spec = importlib.util.spec_from_file_location(
        "linetrace", os.path.join(_ROOT, "tools", "linetrace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_keeps_its_exit_status_and_bytes(tmp_path,
                                                       monkeypatch):
    with open(os.path.join(DATA_DIR, "commands.json"),
              encoding="utf-8") as fh:
        stored = json.load(fh)
    monkeypatch.chdir(_ROOT)
    ran = _linetrace().command_digests(str(tmp_path))
    assert list(ran) == list(stored)
    moved = [command for command in stored if ran[command] != stored[command]]
    assert not moved, f"commands whose status or bytes moved: {moved}"
