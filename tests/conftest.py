"""Point the interpreters that tests start at the hdfactor the tests import.

pytest puts ``src`` on its own import path (``pyproject.toml``), but a
``python -m hdfactor`` subprocess only sees ``PYTHONPATH``; without this a
checkout that was never installed would fail every CLI test.
"""

import os
from pathlib import Path

import hdfactor

_SRC = str(Path(hdfactor.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
