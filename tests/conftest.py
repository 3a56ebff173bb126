"""Let the CLI subprocesses started by the tests import qicsim from src/.

pyproject's pythonpath setting covers the test process itself; children
inherit only the environment.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
