"""Delete each guarded verifier predicate in turn and check that a test fails.

Usage: python3 tools/verify_mutants.py

Every ``if ...: return VerifyResult(...)`` in ``pipeline.verify_certificate``
is one predicate.  For each in turn, this checkout's ``src/`` and ``tests/``
are copied to a temporary directory, that ``if`` is replaced with ``pass``,
and ``python3 -m pytest -q -x tests/test_pipeline.py`` runs on the copy with
``PYTHONDONTWRITEBYTECODE=1``.  The mutant is killed if pytest fails.  One
line per predicate, ``<reason> killed`` or ``<reason> SURVIVED``; the exit
code is 1 if any mutant survives, 2 if the unmutated copy already fails.
Nothing is written inside the checkout.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIPELINE = Path("src", "fibercert", "pipeline.py")


def predicates(source: str) -> list[tuple[str, int, int]]:
    """(reason, first line, last line) of each ``if`` in verify_certificate
    whose body is only ``return VerifyResult(verdict, reason)``."""
    verify = next(node for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef) and node.name == "verify_certificate")
    found = []
    for node in ast.walk(verify):
        if not (isinstance(node, ast.If) and not node.orelse and len(node.body) == 1):
            continue
        ret = node.body[0]
        if (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call)
                and getattr(ret.value.func, "id", None) == "VerifyResult"):
            found.append((ret.value.args[1].value, node.lineno, node.end_lineno))
    return sorted(found, key=lambda p: p[1])


def tests_pass(source: str) -> bool:
    """Run tests/test_pipeline.py on a copy of src/ whose pipeline.py is source."""
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(tmp, name), ignore=ignore)
        Path(tmp, PIPELINE).write_text(source, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "tests/test_pipeline.py"]
        return subprocess.run(command, cwd=tmp, env=env, capture_output=True).returncode == 0


def main() -> int:
    source = (ROOT / PIPELINE).read_text(encoding="utf-8")
    if not tests_pass(source):
        print("tests/test_pipeline.py fails on the unmutated source")
        return 2
    lines = source.splitlines(keepends=True)
    survived = 0
    for reason, first, last in predicates(source):
        head = lines[first - 1]
        mutant = "".join(lines[:first - 1] + [head[:len(head) - len(head.lstrip())] + "pass\n"]
                         + lines[last:])
        killed = not tests_pass(mutant)
        survived += not killed
        print(f"{reason} {'killed' if killed else 'SURVIVED'}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
