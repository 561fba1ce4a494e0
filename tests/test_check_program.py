"""simlint's clean contract on the repository's test and benchmark trees.

tests/test_check.py::test_repo_tree_is_lint_clean holds the package to
the same contract; together the two gates cover the CI lint surface,
``repro lint src tests benchmarks``.
"""

from __future__ import annotations

import os

from repro.check import simlint


def test_repo_tests_and_benchmarks_are_lint_clean():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(root, "tests"), os.path.join(root, "benchmarks")]
    assert simlint.lint_paths([p for p in paths if os.path.isdir(p)]) == []
