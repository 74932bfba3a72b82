from fractions import Fraction

import numpy as np
import pytest

from cubelab import bfcore, influence

import oracles


def test_dictator_influences():
    prof = influence.influences(bfcore.dictator(3))
    assert prof.per_coordinate == (Fraction(1), Fraction(0), Fraction(0))
    assert prof.total == 1
    assert prof.argmax == 0


def test_majority3_influences():
    f = bfcore.majority(3)
    prof = influence.influences(f)
    for i in range(3):
        assert prof.per_coordinate[i] == oracles.brute_influence(f, i) == Fraction(1, 2)


def test_subcube_influences():
    # flipping one of the two AND-ed coordinates changes f exactly when the
    # other one is +1, so each influence is 1/2 (confirmed by brute force)
    f = bfcore.subcube(2, 4)
    prof = influence.influences(f)
    for i in range(4):
        assert prof.per_coordinate[i] == oracles.brute_influence(f, i)
    assert prof.per_coordinate == (
        Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))


def test_argmax_tie_goes_low():
    prof = influence.influences(bfcore.majority(5))
    assert prof.argmax == 0


def test_edge_boundary_identity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=64), 6)
        prof = influence.influences(f)
        table = f.table
        edges = 0
        for m in range(64):
            for i in range(6):
                if m >> i & 1 and table[m] != table[m ^ (1 << i)]:
                    edges += 1
        assert prof.total * (1 << 5) == edges  # I(f) * 2^(n-1)


def test_subcube_boundaries():
    veils = influence.boundary_measures(bfcore.subcube(3, 5))
    assert veils.vb1 == Fraction(1, 8)
    assert veils.vb0 == Fraction(3, 8)


def test_dictator_boundary_tightness():
    f = bfcore.dictator(4)
    prof = influence.influences(f)
    assert influence.boundary_measures(f).vb1 == prof.per_coordinate[0] / 2


def test_majority3_boundary():
    assert influence.boundary_measures(bfcore.majority(3)).vb1 == Fraction(3, 8)


def test_boundaries_against_brute():
    rng = np.random.default_rng(23)
    for _ in range(10):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=32), 5)
        veil = influence.boundary_measures(f)
        assert veil.vb1 == oracles.brute_boundary(f, 1)
        assert veil.vb0 == oracles.brute_boundary(f, 0)
        assert veil.vb1 <= f.mean
        assert veil.vb0 <= 1 - f.mean


def test_vertex_boundary_validates_side():
    """The table scan gives both sides at once; the halfspace route takes one."""
    with pytest.raises(ValueError):
        bfcore.FunctionSpec.parse("dict:2").halfspace().vertex_boundary(2)
