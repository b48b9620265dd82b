import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from thetaquant import SiegelPoint


@pytest.fixture(scope="session")
def points_n1():
    """The standard n = 1 test points: i, 1+2i, 0.5+0.7i."""
    return [SiegelPoint(1j), SiegelPoint(1 + 2j), SiegelPoint(0.5 + 0.7j)]


@pytest.fixture(scope="session")
def point_n2():
    return SiegelPoint(np.diag([1j, 2j]))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls((module, name), ...)`` wraps each named function of its
    module in place and returns one Counter of their calls by name, summed
    over the modules that share a name; the originals come back at
    teardown."""

    def count(*targets):
        calls = Counter()
        for module, name in targets:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    return count
