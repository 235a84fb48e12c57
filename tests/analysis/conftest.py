"""Shared fixtures for the analyzer tests."""

import pytest

from repro.analysis import lint_tree
from repro.analysis.runner import package_root


@pytest.fixture(scope="session")
def shipped_lint():
    """One whole-tree lint of the shipped package, shared by the tests
    that only inspect its result.  Tests that lint a modified copy, the
    AST-cache tests and the run-twice determinism test lint on their own."""
    return lint_tree(package_root())
