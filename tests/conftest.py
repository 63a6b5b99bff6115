import itertools

import pytest

from ybe import brace as br
from ybe import perm as pm
from ybe import solution as sol


@pytest.fixture(scope="session")
def corpus():
    """All solutions on 1, 2, and 3 points, from the exhaustive oracle."""
    out = []
    for m in (1, 2, 3):
        out.extend(sol.enumerate_solutions(m))
    return out


def _per_pair_sigma_witness(rows):
    """The first (x, y) in lex order with σ_x∘σ_{σ_x⁻¹(y)} ≠
    σ_y∘σ_{σ_y⁻¹(x)}, or None, by two compositions per pair: the
    reference for the interned search ``solution._sigma_condition_witness``."""
    inverses = [pm.inverse(row) for row in rows]
    points = range(len(rows))
    return next(
        (
            (x, y)
            for x in points
            for y in points
            if pm.compose(rows[x], rows[inverses[x][y]])
            != pm.compose(rows[y], rows[inverses[y][x]])
        ),
        None,
    )


@pytest.fixture(scope="session")
def sigma_witness_reference():
    return _per_pair_sigma_witness


@pytest.fixture(scope="session")
def swap2():
    return sol.from_sigma([(1, 0), (1, 0)])


@pytest.fixture(scope="session")
def adjoined3(swap2):
    """The 3-point solution with sigma = [(0 1), (0 1), id]."""
    return sol.adjoin_fixed_point(swap2)


@pytest.fixture(scope="session")
def brace_z4():
    """Order-4 brace on Z/4 with a.b = a + b + 2ab."""
    add = [[(a + c) % 4 for c in range(4)] for a in range(4)]
    mul = [[(a + c + 2 * a * c) % 4 for c in range(4)] for a in range(4)]
    return br.brace_from_tables(add, mul)


def all_pairs(m):
    return itertools.product(range(m), repeat=2)
