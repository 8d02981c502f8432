"""Run picfold under ``python -O``, where ``assert`` statements are stripped.

A check that must hold under any interpreter flags is run here: the tests
patch one src fact in ``setup`` and read what the report says.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_under_optimize(setup: str, suite: str | None = None, exit_code: int = 1) -> dict:
    """Run ``setup`` under ``python -O``, then ``picfold verify <suite>`` if a suite is given.

    The process must exit with ``exit_code``.  Returns the JSON report's
    results by claim id (each with its status and witness), or an empty
    dict without a suite.
    """
    code = setup
    if suite is not None:
        code += ("import sys\n"
                 "from picfold import cli\n"
                 f"rc = cli.main(['verify', {suite!r}, '--format', 'json'])\n"
                 "sys.stdout.flush()\n"
                 "raise SystemExit(rc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    if suite is None:
        return {}
    return {r["id"]: r for r in json.loads(proc.stdout)["results"]}
