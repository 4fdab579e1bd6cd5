import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from toriq.fan import Fan, product_fan, projective_space_fan


@pytest.fixture(scope="session")
def p1():
    return projective_space_fan(1)


@pytest.fixture(scope="session")
def p2():
    return Fan(2, ((-1, -1), (1, 0), (0, 1)), ((0, 1), (0, 2), (1, 2)))


@pytest.fixture(scope="session")
def p3():
    return projective_space_fan(3)


@pytest.fixture(scope="session")
def bl0p2():
    return Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)), ((1, 3), (2, 3), (0, 2), (0, 1)))


@pytest.fixture(scope="session")
def p1xp1():
    return product_fan([projective_space_fan(1), projective_space_fan(1)])


@pytest.fixture(scope="session")
def p2xp1():
    return product_fan([projective_space_fan(2), projective_space_fan(1)])


@pytest.fixture(scope="session")
def f2():
    return Fan(2, ((1, 0), (0, 1), (-1, 2), (0, -1)),
               ((0, 1), (1, 2), (2, 3), (3, 0)))


@pytest.fixture(scope="session")
def hexagon():
    """The toric del Pezzo surface of degree 6 (P2 blown up in three points)."""
    return Fan(2, ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
               ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
