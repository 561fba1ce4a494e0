"""The example scripts run end to end.

Each one builds its own stacks through the public API, so a change to
how instruments attach or how a testbed is wired breaks them before it
breaks anything under ``tests/``.  ``mailserver_postmark.py`` and
``wan_latency_sweep.py`` are left out: they take seconds, not a fraction
of one, and CI runs them as a separate step.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_example(script):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", [
    "quickstart.py", "protocol_inspector.py", "where_does_time_go.py",
])
def test_example_runs(script):
    assert _run_example(script)


def test_shared_namespace_matches_golden():
    """The two-client example prints message and callback counts, so
    its stdout pins the shared testbed's wiring."""
    golden = os.path.join(ROOT, "tests", "golden", "shared_namespace.txt")
    with open(golden) as handle:
        assert _run_example("shared_namespace.py") == handle.read()
