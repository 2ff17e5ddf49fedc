import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import zetaflow as zf

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # HYPOTHESIS_PROFILE=ci draws the same examples on every run and machine
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def zeta_handle():
    return zf.zeta_function()


@pytest.fixture(scope="session")
def chi4():
    """The nontrivial character mod 4: 1, 0, -1, 0."""
    return zf.validate_character([1, 0, -1, 0])


@pytest.fixture(scope="session")
def zeros_to_100():
    """Critical-line census to t = 100, shared by several suites."""
    return zf.find_critical_zeros(100.0)
