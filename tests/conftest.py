"""Point the interpreters that tests start at the hdfactor the tests import.

pytest puts ``src`` on its own import path (``pyproject.toml``), but a
``python -m hdfactor`` subprocess only sees ``PYTHONPATH``; without this a
checkout that was never installed would fail every CLI test.  Those
subprocesses also turn a ``RuntimeWarning`` into an error, as pytest does
in-process, so a numpy warning cannot slip out on a CLI's stderr.  The
CLI's cache of parsed panels goes to a temp directory for the session.
"""

import os
from pathlib import Path

import pytest

import hdfactor

_SRC = str(Path(hdfactor.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"])
)


@pytest.fixture(autouse=True, scope="session")
def _cache_home(tmp_path_factory):
    """Keep the CLI's cache of parsed panels in a temp directory, never the real home."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
        yield
