import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mtnpass.objective import TrustRegion, six_hump_camel
from mtnpass.quadmodel import QuadraticObjective


@pytest.fixture
def camel():
    return six_hump_camel()


@pytest.fixture
def saddle_quadratic():
    """f(x) = 0.5 (x1^2 - x2^2); the workhorse exact example."""
    return QuadraticObjective(np.diag([1.0, -1.0]), np.zeros(2), 0.0)


@pytest.fixture
def origin_region():
    return TrustRegion(np.zeros(2), 10.0)
