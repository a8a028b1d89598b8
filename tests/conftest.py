"""Shared fixtures."""

import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def artifacts():
    """Every paper artifact, built once per test session (serially).

    Tests that need only the CLI's plumbing stub the builder with this,
    so the full set is regenerated once.
    """
    from repro.reporting import golden
    return golden.build()


@pytest.fixture(scope="session")
def golden_dir():
    """The directory of the committed golden files."""
    return str(GOLDEN_DIR)


@pytest.fixture(scope="session")
def goldens():
    """The committed golden data, keyed by artifact."""
    from repro.reporting import golden
    return golden.load(str(GOLDEN_DIR))
