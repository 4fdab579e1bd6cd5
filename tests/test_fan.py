import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriq.cases import fixture_path
from toriq.classes import nef_hilbert_basis
from toriq.embedding import build_epic_embedding
from toriq.fan import (Fan, dual_basis, locate_cones, primitive_collections, product_fan,
                       projective_space_fan, require_valid, validate_fan, walls)
from toriq.io import load_embedding
from toriq.linalg import frac, kernel_basis

from test_classes import _relabelled
from test_embedding import CONFTEST_FANS
from test_hirzebruch import S6
from test_linalg import invert_oracle


def test_p2_is_valid(p2):
    assert validate_fan(p2) == []


def test_missing_cone_breaks_completeness(p2):
    broken = Fan(2, p2.rays, ((0, 1), (0, 2)))
    report = validate_fan(broken)
    assert any("wall" in line for line in report)
    assert validate_fan(Fan(2, (), ())) == ["fan has no maximal cones"]


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
    """The ray sets in no cone whose one-smaller subsets all lie in one, found
    by testing every subset of up to one ray more than the largest cone."""
    faces = {frozenset(face) for cone in [()] + list(fan.max_cones)
             for size in range(len(cone) + 1) for face in combinations(cone, size)}
    largest = max(map(len, faces))
    minimal = [frozenset(sub) for size in range(1, largest + 2)
               for sub in combinations(range(fan.n_rays), size)
               if frozenset(sub) not in faces
               and all(frozenset(sub) - {i} in faces for i in sub)]
    return tuple(sorted(minimal, key=sorted))


def test_primitive_collections_p2(p2):
    assert list(primitive_collections(p2)) == [frozenset({0, 1, 2})]


def test_primitive_collections_bl0p2(bl0p2):
    assert sorted(primitive_collections(bl0p2), key=sorted) == [
        frozenset({0, 3}), frozenset({1, 2})
    ]


def test_primitive_collections_match_bruteforce(request, hexagon):
    """The minimal transversals equal the subset search, order included, on
    the conftest fans, two surfaces, two products, two built targets, the
    fans without cones or without rays, an invalid fan and seeded
    relabellings of them."""
    p = projective_space_fan
    hexagon_p1 = product_fan([hexagon, p(1)])
    coneless = Fan(2, ((1, 0), (0, 1), (-1, -1)), ())
    fans = [request.getfixturevalue(name) for name in CONFTEST_FANS]
    fans += [S6, hexagon_p1, product_fan([p(2), p(3)]),
             build_epic_embedding(hexagon).target, build_epic_embedding(hexagon_p1).target,
             coneless, product_fan([]), Fan(2, coneless.rays, ((0, 1), (1, 2)))]
    rng = random.Random(3501)
    fans += [_relabelled(rng.choice(fans), rng) for _ in range(20)]
    for fan in fans:
        assert primitive_collections(fan) == brute_force_primitive_collections(fan), fan
    assert primitive_collections(coneless) == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert primitive_collections(product_fan([])) == ()


def test_disconnected_cones_are_reported():
    """Two planes in one lattice: every cone is smooth and every wall has two
    cones, but no wall joins the two triangles."""
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)),
              ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert validate_fan(fan) == ["maximal-cone adjacency graph is not connected"]


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


def test_validate_fan_returns_a_fresh_list():
    index_two = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    report = validate_fan(index_two)
    expected = list(report)
    report.clear()
    assert validate_fan(index_two) == expected
    with pytest.raises(ValueError) as exc:
        require_valid(index_two)
    assert str(exc.value) == \
        "invalid fan: maximal cone (0, 1) is not smooth (determinant != +-1)"
    valid = projective_space_fan(2)
    validate_fan(valid).append("not a violation")
    assert validate_fan(valid) == [] and require_valid(valid) is valid


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
    p = projective_space_fan
    for fan in [p(n) for n in range(1, 5)] + [product_fan([p(2), p(3)]), product_fan([p(1)] * 5)]:
        assert validate_fan(fan) == []


def test_derived_data_stays_out_of_equality_and_hash(bl0p2):
    used = Fan(bl0p2.dim, bl0p2.rays, bl0p2.max_cones)
    assert validate_fan(used) == []
    walls(used)
    nef_hilbert_basis(used)
    fresh = Fan(bl0p2.dim, bl0p2.rays, bl0p2.max_cones)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


# Reference for the fan condition: an all-pairs search for extreme rays of
# each pairwise cone intersection that leave the common face.  Far slower than
# the wall test in validate_fan, which is checked against it below.

def cone_coordinates(fan, cone_index, u):
    """Coordinates of u in the ray basis of the given maximal cone."""
    basis = dual_basis(fan, fan.max_cones[cone_index])
    return tuple(sum(frac(m) * frac(x) for m, x in zip(row, u)) for row in basis)


def _intersection_extreme_ray_candidates(fan, ci, cj):
    """Vectors spanning the extreme rays of the intersection of two maximal cones."""
    rows = [list(m) for m in dual_basis(fan, fan.max_cones[ci])]
    rows += [list(m) for m in dual_basis(fan, fan.max_cones[cj])]
    n = fan.dim
    candidates = []
    if n == 1:
        subsets = [()]
    else:
        subsets = combinations(range(len(rows)), n - 1)
    for subset in subsets:
        sub = [rows[i] for i in subset]
        kern = kernel_basis(sub, n) if sub else [tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))]
        if len(kern) != 1:
            continue
        for vec in (kern[0], tuple(-x for x in kern[0])):
            if all(sum(frac(a) * frac(b) for a, b in zip(row, vec)) >= 0 for row in rows):
                if any(x != 0 for x in vec):
                    candidates.append(vec)
    return candidates


def _fan_condition_violations(fan):
    out = []
    for ci, cj in combinations(range(len(fan.max_cones)), 2):
        common = set(fan.max_cones[ci]) & set(fan.max_cones[cj])
        for vec in _intersection_extreme_ray_candidates(fan, ci, cj):
            coords = cone_coordinates(fan, ci, vec)
            support = {fan.max_cones[ci][k] for k, c in enumerate(coords) if c != 0}
            if not support <= common:
                out.append(
                    f"cones {fan.max_cones[ci]} and {fan.max_cones[cj]} intersect "
                    f"outside the cone spanned by their common rays"
                )
                break
    return out


def _perturbed(fan, rng):
    rays = [list(r) for r in fan.rays]
    cones = [list(c) for c in fan.max_cones]
    kind = rng.randrange(4)
    i = rng.randrange(len(rays))
    if kind == 0:
        j = rng.randrange(len(rays))
        rays[i], rays[j] = rays[j], rays[i]
    elif kind == 1:
        rays[i][rng.randrange(fan.dim)] *= -1
    elif kind == 2:
        rays[i] = [-x for x in rays[i]]
    else:
        cone = rng.choice(cones)
        cone[rng.randrange(len(cone))] = i
    return Fan(fan.dim, tuple(map(tuple, rays)), tuple(map(tuple, cones)))


DOUBLE_CYCLE = Fan(2, ((1, 0), (-2, 1), (-1, 0), (-1, -1), (-1, -2), (0, -1), (1, 1), (-2, -1)),
                   tuple((i, (i + 1) % 8) for i in range(8)))


@pytest.fixture(scope="module")
def seeded_corpus(p1, p2, p3, bl0p2, p1xp1, p2xp1, f2, hexagon):
    """Twelve named fans and 265 seeded perturbations of them."""
    low_dim = [p1, p2, bl0p2, p1xp1, f2, hexagon, DOUBLE_CYCLE]
    # the bundled fan fixtures are p2, p3, bl0p2 and p1xp1; bl0p2_product adds P1xP2
    dim3 = [p3, p2xp1, load_embedding(fixture_path("bl0p2_product.json")).target,
            product_fan([p1, p2]), product_fan([p1, p1, p1])]
    rng = random.Random(2024)
    # the fan-condition oracle takes about 0.1 s on a valid 3-dimensional fan,
    # so most perturbations start from the cheaper low-dimensional fans
    corpus = low_dim + dim3 + [_perturbed(rng.choice(low_dim), rng) for _ in range(250)]
    corpus += [_perturbed(rng.choice(dim3), rng) for _ in range(15)]
    return corpus


def test_wall_test_agrees_with_all_pairs_oracle(seeded_corpus):
    stage_failures = 0
    for fan in seeded_corpus:
        report = validate_fan(fan)
        if any("intersect outside" not in line for line in report):
            continue  # failed a check that runs before the fan condition
        expected = _fan_condition_violations(fan)
        assert bool(report) == bool(expected), fan
        stage_failures += bool(expected)
    assert validate_fan(DOUBLE_CYCLE)
    assert stage_failures >= 30


def test_size_check_names_repeated_rays(seeded_corpus, p2):
    repeated = Fan(2, p2.rays, ((0, 0), (0, 2), (1, 2)))
    assert validate_fan(repeated) == ["maximal cone (0, 0) does not have 2 distinct rays"]
    too_long = Fan(2, p2.rays, ((0, 0, 1), (0, 2), (1, 2)))
    assert validate_fan(too_long) == ["maximal cone (0, 0, 1) does not have 2 rays"]
    repeats = 0
    for fan in seeded_corpus:
        report = validate_fan(fan)
        if any(word in line for line in report
               for word in ("not pairwise distinct", "is zero", "not primitive")):
            continue  # failed a check that runs before the size check
        expected = [f"maximal cone {cone} does not have {fan.dim}"
                    f"{' distinct' if len(cone) == fan.dim else ''} rays"
                    for cone in fan.max_cones if len(set(cone)) != fan.dim or len(cone) != fan.dim]
        assert [line for line in report if "does not have" in line] == expected, fan
        repeats += any(len(set(cone)) < len(cone) for cone in fan.max_cones)
    assert repeats >= 4


# Reference for smoothness: the determinant of each maximal cone's rays,
# which validate_fan no longer computes (it asks for an integral dual basis).

def determinant(mat):
    """Exact determinant via fraction Gaussian elimination."""
    n = len(mat)
    m = [[frac(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


# lines of the checks that validate_fan runs before smoothness
BEFORE_SMOOTHNESS = ("not pairwise distinct", "is zero", "not primitive",
                     "no maximal cones", "does not have")


def test_smoothness_agrees_with_determinant_oracle(seeded_corpus):
    singular = Fan(2, ((1, 0), (-1, 0), (0, 1)), ((0, 1), (0, 2), (1, 2)))
    index_two = Fan(2, ((1, 0), (1, 2), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    # the corpus's cones with a repeated ray stop at the size check; more
    # perturbations of its named fans keep the floor of checked fans below
    rng = random.Random(2207)
    extra = [_perturbed(rng.choice(seeded_corpus[:7]), rng) for _ in range(20)]
    checked = non_smooth = 0
    for fan in seeded_corpus + extra + [singular, index_two]:
        report = validate_fan(fan)
        if any(word in line for line in report for word in BEFORE_SMOOTHNESS):
            continue
        expected = [
            f"maximal cone {cone} is not smooth (determinant != +-1)"
            for cone in fan.max_cones
            if abs(determinant([[fan.rays[j][i] for j in cone] for i in range(fan.dim)])) != 1
        ]
        assert [line for line in report if "not smooth" in line] == expected, fan
        checked += 1
        non_smooth += bool(expected)
    assert validate_fan(singular) == ["maximal cone (0, 1) is not smooth (determinant != +-1)"]
    assert checked >= 200 and non_smooth >= 30


# Reference for the dual bases: each maximal cone inverted on its own, which
# the walk over the facet graph replaces by one integer pivot per cone.

def dual_basis_oracle(fan, sigma):
    """The dual basis of a maximal cone by inverting its ray matrix."""
    sigma = tuple(sorted(sigma))
    if sigma not in fan.max_cones:
        raise ValueError(f"{sigma} is not a maximal cone of the fan")
    if not len(set(sigma)) == len(sigma) == fan.dim:
        raise ValueError(f"maximal cone {sigma} is not a set of {fan.dim} distinct rays")
    inv = invert_oracle([[fan.rays[j][i] for j in sigma] for i in range(fan.dim)])
    # the inverse of an integer matrix is integral exactly when |det| = 1
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("non-unimodular cone has no integral dual basis")
    return tuple(tuple(map(int, row)) for row in inv)


def _outcome(fn, fan, sigma):
    try:
        return fn(fan, sigma)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("bad", [(0, 1, 2, 3), (0, 1), (0, 0, 1)])
def test_public_dual_basis_rejects_a_cone_without_dim_distinct_rays(p3, bad):
    """``toriq.dual_basis`` and ``toriq.locate_cones`` raise on a maximal
    cone that is not dim distinct rays, naming it, and still read the other
    cones."""
    import toriq

    fan = Fan(3, p3.rays, ((1, 2, 3), bad))
    message = re.escape(f"maximal cone {bad} is not a set of 3 distinct rays")
    with pytest.raises(ValueError, match=message):
        toriq.dual_basis(fan, bad)
    with pytest.raises(ValueError, match=message):
        toriq.locate_cones(fan, (1, 1, 1))
    assert toriq.dual_basis(fan, (1, 2, 3)) == dual_basis_oracle(fan, (1, 2, 3))


def test_dual_basis_walk_agrees_with_inversion_oracle(seeded_corpus, p2, p3, hexagon):
    p = projective_space_fan
    products = [product_fan([p(a), p(b)])
                for a in range(1, 5) for b in range(1, 6 - a)]
    malformed = [
        Fan(2, p2.rays, ((0, 0), (0, 2), (1, 2))),  # a repeated ray
        Fan(2, p2.rays, ((0, 1), (0, 1), (0, 2), (1, 2))),  # a duplicated cone
        Fan(2, ((1, 0), (-1, 0), (0, 1)), ((0, 1), (0, 2), (1, 2))),  # singular first cone
        Fan(3, p3.rays, ((0, 1), (0, 1, 2), (0, 1, 2, 3), (1, 2, 3))),  # dim -+ 1 rays
        DOUBLE_CYCLE,
        Fan(2, hexagon.rays, ((0, 1), (1, 2), (3, 4), (4, 5))),  # two walks
    ]
    outcomes = Counter()
    for fan in seeded_corpus + products + malformed:
        for sigma in fan.max_cones + ((0,),):
            expected = _outcome(dual_basis_oracle, fan, sigma)
            assert _outcome(dual_basis, fan, sigma) == expected, (fan, sigma)
            outcomes[expected if type(expected) is str else "basis"] += 1
    assert outcomes["basis"] >= 1000
    assert outcomes["singular matrix"] >= 20
    assert outcomes["non-unimodular cone has no integral dual basis"] >= 20
