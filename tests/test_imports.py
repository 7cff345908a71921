"""Importing the library does not load what only a deleted feature needed.

``ssl`` and ``urllib.request`` were pulled in by an HTTP trace collector
and ``tracemalloc`` by a heap endpoint.  Neither exists any more, and
``repro.obs`` re-exports nothing, so importing one observability module
no longer drags the others in.  Each import runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("ssl", "urllib.request", "tracemalloc")


def loaded_after(statement):
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return set(json.loads(out))


def test_core_import_loads_no_network_or_heap_modules():
    assert loaded_after("import repro.core") & set(UNWANTED) == set()


@pytest.mark.parametrize("module", ["repro.xksearch.server", "repro.obs.export"])
def test_server_import_adds_nothing_beyond_the_stdlib_http_server(module):
    # http.server imports http.client, which imports ssl when it can: that
    # one is the standard library's, not ours.
    stdlib = loaded_after("import http.server")
    extra = (loaded_after(f"import {module}") - stdlib) & set(UNWANTED)
    assert extra == set()
