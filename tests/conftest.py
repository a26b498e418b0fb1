"""pyproject's pytest `pythonpath` puts src/ on this process's import path;
the CLI tests start `python -m kcycles.cli` subprocesses, which get the
same directory through PYTHONPATH, so the suite runs without an install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
