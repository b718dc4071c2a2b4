"""Run Python code in a fresh interpreter that imports this checkout's
lexdom, for what depends on which modules a process has loaded."""

import os
import subprocess
import sys
from pathlib import Path

import lexdom


def run_fresh(code: str) -> str:
    """The stdout of ``python -c code``; fails the test if the code fails."""
    paths = (str(Path(lexdom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout
