from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriq.classes import nef_hilbert_basis
from toriq.fan import (Fan, dual_basis, locate_cones, primitive_collections,
                       projective_space_fan, validate_fan, walls)


def test_p2_is_valid(p2):
    assert validate_fan(p2) == []


def test_missing_cone_breaks_completeness(p2):
    broken = Fan(2, p2.rays, ((0, 1), (0, 2)))
    report = validate_fan(broken)
    assert any("wall" in line for line in report)


def test_bl0p2_is_valid(bl0p2):
    assert validate_fan(bl0p2) == []


def test_nonprimitive_ray_rejected():
    fan = Fan(2, ((2, 0), (0, 1), (-2, -1)), ((0, 1), (1, 2), (0, 2)))
    assert any("primitive" in line for line in validate_fan(fan))


def test_nonsmooth_cone_rejected():
    # the cone on (1,0) and (1,2) has determinant 2
    fan = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    assert any("smooth" in line for line in validate_fan(fan))


def test_duplicate_cone_breaks_wall_count():
    fan = Fan(1, ((1,), (-1,)), ((0,), (0,)))
    assert validate_fan(fan)


def test_fan_condition_catches_overlapping_cones():
    # every wall has exactly two owners and all cones are smooth, but the cone
    # on rays 1,2 sits inside the first quadrant cone on rays 0,1
    fan = Fan(2, ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)),
              ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    report = validate_fan(fan)
    assert report and all("intersect outside" in line for line in report)


def test_malformed_ray_length_rejected_early():
    with pytest.raises(ValueError):
        Fan(2, ((1, 0, 0), (0, 1)), ((0, 1),))


def brute_force_primitive_collections(fan):
    cones = [set(c) for c in fan.max_cones]
    non_faces = [
        set(sub)
        for size in range(1, fan.n_rays + 1)
        for sub in combinations(range(fan.n_rays), size)
        if not any(set(sub) <= cone for cone in cones)
    ]
    minimal = [
        frozenset(nf) for nf in non_faces
        if not any(other < nf for other in map(set, non_faces) if other != nf)
    ]
    return sorted(set(minimal), key=sorted)


def test_primitive_collections_p2(p2):
    assert list(primitive_collections(p2)) == [frozenset({0, 1, 2})]


def test_primitive_collections_bl0p2(bl0p2):
    assert sorted(primitive_collections(bl0p2), key=sorted) == [
        frozenset({0, 3}), frozenset({1, 2})
    ]


def test_primitive_collections_match_bruteforce(p2, bl0p2, p1xp1, p3, p2xp1):
    for fan in (p2, bl0p2, p1xp1, p3, p2xp1):
        assert sorted(primitive_collections(fan), key=sorted) == \
            brute_force_primitive_collections(fan)


def test_locate_cones_examples(p2, bl0p2):
    assert locate_cones(p2, (0, 0)) == [0, 1, 2]
    assert [p2.max_cones[i] for i in locate_cones(p2, (2, 1))] == [(1, 2)]
    hits = [bl0p2.max_cones[i] for i in locate_cones(bl0p2, (0, 1))]
    assert sorted(hits) == [(1, 3), (2, 3)]


def test_dual_basis_examples(p2, bl0p2):
    assert dual_basis(p2, (1, 2)) == ((1, 0), (0, 1))
    assert dual_basis(p2, (0, 1)) == ((0, -1), (1, -1))
    assert dual_basis(bl0p2, (0, 2)) == ((-1, -1), (-1, 0))


def test_dual_basis_rejects_non_maximal(p2):
    with pytest.raises(ValueError):
        dual_basis(p2, (0,))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
def test_locate_cones_nonempty_and_dual_identity(u):
    fan = Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)), ((1, 3), (2, 3), (0, 2), (0, 1)))
    hits = locate_cones(fan, u)
    assert hits
    for idx in hits:
        cone = fan.max_cones[idx]
        duals = dual_basis(fan, cone)
        for i, m in enumerate(duals):
            for j, rho in enumerate(cone):
                pairing = sum(a * b for a, b in zip(m, fan.rays[rho]))
                assert pairing == (1 if i == j else 0)
            for rho, ray in enumerate(fan.rays):
                assert fan.exponent_matrix(cone)[i][rho] == sum(a * b for a, b in zip(m, ray))


def test_product_fan_shape(p1xp1):
    assert p1xp1.rays == ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert len(p1xp1.max_cones) == 4
    assert validate_fan(p1xp1) == []


def test_projective_space_fans_valid():
    for n in range(1, 5):
        assert validate_fan(projective_space_fan(n)) == []


def test_derived_data_stays_out_of_equality_and_hash(bl0p2):
    used = Fan(bl0p2.dim, bl0p2.rays, bl0p2.max_cones)
    assert validate_fan(used) == []
    walls(used)
    nef_hilbert_basis(used)
    fresh = Fan(bl0p2.dim, bl0p2.rays, bl0p2.max_cones)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
