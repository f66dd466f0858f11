"""Shared fixtures for the test suite.

Simulation-bearing tests default to small op counts so the suite stays
fast; the paper-shape checks in ``test_paper_claims.py`` use moderately
larger runs and are the slowest part of the suite.
"""

from __future__ import annotations

import pytest

from repro.cpu.config import MachineConfig
from repro.tech.constants import celsius_to_kelvin
from repro.tech.nodes import get_node


@pytest.fixture(scope="session")
def node70():
    return get_node("70nm")


@pytest.fixture(scope="session")
def node180():
    return get_node("180nm")


@pytest.fixture(scope="session")
def hot_temp_k():
    """The paper's hot operating point (110 C) in kelvin."""
    return celsius_to_kelvin(110.0)


@pytest.fixture(scope="session")
def machine():
    """Table 2's machine with the default 11-cycle L2."""
    return MachineConfig()


@pytest.fixture(autouse=True)
def _clear_experiment_caches():
    """Isolate memoised simulations between tests."""
    from repro.experiments.runner import clear_caches

    clear_caches()
    yield
    clear_caches()
