import os
import sys
from pathlib import Path

sys.path.insert(0, "tests")
# Tests that run `python -m tricert.cli` in a subprocess import the package
# from this checkout too.
_src = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_src, os.environ.get("PYTHONPATH")) if p)
