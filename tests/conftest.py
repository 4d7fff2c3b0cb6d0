"""Tests that start a fresh interpreter (test_11) find the package source too.

``pythonpath`` in pyproject.toml reaches only this process; child
processes read ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
