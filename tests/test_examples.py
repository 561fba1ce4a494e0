"""The example scripts that read ``stack.tracer`` run end to end.

Each one builds its own stacks through the public API, so a change to
how instruments attach breaks them before it breaks anything under
``tests/``.  ``mailserver_postmark.py`` and ``wan_latency_sweep.py`` are
left out: they take seconds, not a fraction of one.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", [
    "quickstart.py", "protocol_inspector.py", "where_does_time_go.py",
])
def test_example_runs(script):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert done.returncode == 0, done.stderr
    assert done.stdout
