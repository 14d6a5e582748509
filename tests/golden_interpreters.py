#!/usr/bin/env python3
"""Compute every golden digest under each installed Python 3.10+ and print
each digest that differs from the table in golden_cases.py.

    python tests/golden_interpreters.py [PYTHON ...]

With no arguments it runs every 3.10+ interpreter under
$PYENV_ROOT/versions (default ~/.pyenv/versions).  The cases need neither
pytest nor numpy.  It prints one line per interpreter and one per
differing digest, and exits 1 when a digest differs or an interpreter
fails.  pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
CHILD = """
import json, sys
from golden_cases import CASES, GOLDEN, digest
got = {case: digest(case) for case in sorted(CASES)}
print(json.dumps({"version": sys.version.split()[0], "cases": len(GOLDEN),
                  "differ": {case: [got.get(case), want]
                             for case, want in GOLDEN.items()
                             if got.get(case) != want}}))
"""


def installed() -> list[str]:
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found = []
    for version in sorted((root / "versions").glob("3.*")):
        try:
            minor = int(version.name.split(".")[1])
        except (IndexError, ValueError):
            continue
        python = version / "bin" / "python"
        if minor >= 10 and python.exists():
            found.append(str(python))
    return found


def main(argv: list[str]) -> int:
    pythons = argv or installed()
    if not pythons:
        print("no Python 3.10+ found; name interpreters as arguments")
        return 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")])))
    bad = 0
    for python in pythons:
        child = subprocess.run([python, "-c", CHILD], env=env,
                               capture_output=True, text=True)
        if child.returncode:
            bad += 1
            tail = child.stderr.strip().splitlines()[-1:]
            print(f"{python}: failed: {' '.join(tail)}")
            continue
        got = json.loads(child.stdout)
        n, differ = got["cases"], got["differ"]
        print(f"{python}: Python {got['version']}, "
              f"{n - len(differ)}/{n} digests equal")
        for case, (digest, want) in sorted(differ.items()):
            print(f"  {case}: {digest} (table {want})")
        bad += bool(differ)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
