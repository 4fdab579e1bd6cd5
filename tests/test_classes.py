from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriq.classes import (CurveClass, anticanonical_class, beta_a_sigma,
                           curve_class_from_anchor, divisor_class,
                           effective_classes, factorizations, is_ample,
                           is_effective, is_fano, is_irreducible, is_nef,
                           length, nef_hilbert_basis, relaxed_surjectivity_condition,
                           wall_curve_classes)
from toriq.fan import Fan, locate_cones, walls


def S(fan):
    return curve_class_from_anchor(fan, (1, 0))


def E(fan):
    return curve_class_from_anchor(fan, (0, 1))


def test_curve_class_rejects_bad_pairings(p2):
    with pytest.raises(ValueError):
        CurveClass(p2, (1, 0, 0))


def test_integral_class_arithmetic_stays_int(bl0p2):
    e = CurveClass(bl0p2, (0, 1, 1, -1))
    s = CurveClass(bl0p2, (1, 0, 0, 1))
    integral = [e + s, e - s, 3 * e, e * -2,
                beta_a_sigma(bl0p2, {0: 1, 2: 2}, (1, 3)),
                beta_a_sigma(bl0p2, (2, 5, 1, 7), (1, 3))]
    assert [b.pairings for b in integral] == [
        (1, 1, 1, 0), (-1, 1, 1, -2), (0, 3, 3, -3), (0, -2, -2, 2),
        (1, 2, 2, -1), (2, 1, 1, 1)]
    for beta in integral:
        assert all(type(x) is int for x in beta.pairings)
    half = beta_a_sigma(bl0p2, {0: Fraction(1, 2), 2: Fraction(3, 2)}, (1, 3))
    assert half.pairings == (Fraction(1, 2), Fraction(3, 2), Fraction(3, 2), -1)
    assert type(half.pairings[3]) is int
    assert (half + half).pairings == (1, 3, 3, -2)
    assert all(type(x) is int for x in (half + half).pairings)
    flags = CurveClass(bl0p2, (True, False, False, True))
    assert flags.pairings == (1, 0, 0, 1)
    assert all(type(x) is int for x in flags.pairings)
    message = r"^pairing vector \(1, 0, 0, 0\) is not a curve class \(it pairs " \
              r"inconsistently with the ray relations\)$"
    with pytest.raises(ValueError, match=message):
        CurveClass(bl0p2, (1, 0, 0, 0))
    with pytest.raises(ValueError, match=r"^pairing vector \(Fraction\(1, 2\), 0, 0, 0\)"):
        CurveClass(bl0p2, (Fraction(1, 2), 0, 0, 0))


def test_divisor_class_examples(p2, bl0p2):
    assert divisor_class(p2, 2).coords == (1,)
    assert divisor_class(p2, 0).coords == (1,)
    # basis ([D0], [D2]) on the blow-up: [D1] = S, [D3] = L - S
    assert divisor_class(bl0p2, 1).coords == (0, 1)
    assert divisor_class(bl0p2, 3).coords == (1, -1)


def test_beta_a_sigma_examples(p2, bl0p2):
    line = beta_a_sigma(p2, {2: 1}, (0, 1))
    assert line.pairings == (1, 1, 1)
    e = beta_a_sigma(bl0p2, {0: 0, 2: 1}, (1, 3))
    assert e.pairings == (0, 1, 1, -1)
    zero = beta_a_sigma(bl0p2, {0: 0, 2: 0}, (1, 3))
    assert zero.pairings == (0, 0, 0, 0)


def test_wall_classes(p2, bl0p2, p1xp1):
    assert [w.pairings for w in wall_curve_classes(p2)] == [(1, 1, 1)] * 3
    by_wall = {facet: cls.pairings
               for (facet, _), cls in zip(walls(bl0p2), wall_curve_classes(bl0p2))}
    assert by_wall == {(0,): (1, 1, 1, 0), (1,): (1, 0, 0, 1),
                       (2,): (1, 0, 0, 1), (3,): (0, 1, 1, -1)}
    assert sorted(w.pairings for w in wall_curve_classes(p1xp1)) == \
        [(0, 0, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0)]


def test_cone_tests(bl0p2):
    assert is_fano(bl0p2)
    s_div = divisor_class(bl0p2, 2)
    assert is_nef(s_div) and not is_ample(s_div)
    assert is_effective(CurveClass(bl0p2, (0, 0, 0, 0)))
    assert relaxed_surjectivity_condition(bl0p2, 8)
    with pytest.raises(ValueError):
        relaxed_surjectivity_condition(bl0p2, None)


def test_anticanonical_bl0p2(bl0p2):
    anti = anticanonical_class(bl0p2)
    assert anti.pair(S(bl0p2)) == 2
    assert anti.pair(E(bl0p2)) == 1
    assert is_ample(anti)


def test_nef_hilbert_basis(p2, bl0p2, p1xp1):
    assert [d.coords for d in nef_hilbert_basis(p2)] == [(1,)]
    assert sorted(d.coords for d in nef_hilbert_basis(bl0p2)) == [(0, 1), (1, 0)]
    assert sorted(d.coords for d in nef_hilbert_basis(p1xp1)) == [(0, 1), (1, 0)]


def test_length_examples(bl0p2, p2):
    assert length(E(bl0p2)) == 1
    assert length(S(bl0p2)) == 2
    assert length(S(bl0p2) + E(bl0p2)) == 3
    assert length(CurveClass(bl0p2, (0, 0, 0, 0))) == 0
    assert length(beta_a_sigma(p2, {2: 1}, (0, 1))) == 3


def test_factorizations(bl0p2, p2):
    L = S(bl0p2) + E(bl0p2)
    pairs = factorizations(bl0p2, L)
    assert [(a.pairings, b.pairings) for a, b in pairs] == \
        [((0, 1, 1, -1), (1, 0, 0, 1))]
    assert is_irreducible(bl0p2, S(bl0p2))
    assert is_irreducible(bl0p2, E(bl0p2))
    line = beta_a_sigma(p2, {2: 1}, (0, 1))
    assert factorizations(p2, line) == []
    two = 2 * line
    assert [(a.pairings, b.pairings) for a, b in factorizations(p2, two)] == \
        [((1, 1, 1), (1, 1, 1))]
    with pytest.raises(ValueError):
        factorizations(p2, CurveClass(p2, (0, 0, 0)))


def test_duality_pairing_consistency(bl0p2):
    # the anchor contraction agrees with the full pairing expansion
    for beta in wall_curve_classes(bl0p2):
        for rho in range(bl0p2.n_rays):
            d = divisor_class(bl0p2, rho)
            assert d.pair(beta) == beta.pairings[rho]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.integers(0, 3))
def test_beta_a_sigma_inequalities_iff_cone_membership(a, cone_idx):
    fan = Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)), ((1, 3), (2, 3), (0, 2), (0, 1)))
    sigma = fan.max_cones[cone_idx]
    beta = beta_a_sigma(fan, {i: a[i] for i in fan.cone_complement(sigma)}, sigma)
    u = tuple(sum(a[i] * fan.rays[i][k] for i in range(4)) for k in range(2))
    holds = all(a[i] >= beta.pairings[i] for i in sigma)
    assert holds == (cone_idx in locate_cones(fan, u))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
def test_length_additive(a, b, c, d):
    fan = Fan(2, ((0, -1), (1, 0), (-1, 1), (0, 1)), ((1, 3), (2, 3), (0, 2), (0, 1)))
    b1 = curve_class_from_anchor(fan, (a, b))
    b2 = curve_class_from_anchor(fan, (c, d))
    assert length(b1 + b2) == length(b1) + length(b2)


def test_effective_cone_matches_wall_combinations(p2, bl0p2, p1xp1, p3, p2xp1):
    # lattice points of the effective cone up to length 6 equal N-combinations
    # of the wall classes, on all bundled Fano fans
    for fan in (p2, bl0p2, p1xp1, p3, p2xp1):
        walls_anchor = sorted({w.anchor_coords for w in wall_curve_classes(fan)})
        combos = {tuple(0 for _ in walls_anchor[0])}
        frontier = {tuple(0 for _ in walls_anchor[0])}
        while frontier:
            new = set()
            for point in frontier:
                for w in walls_anchor:
                    candidate = tuple(p + x for p, x in zip(point, w))
                    beta = curve_class_from_anchor(fan, candidate)
                    if length(beta) <= 6 and candidate not in combos:
                        combos.add(candidate)
                        new.add(candidate)
            frontier = new
        cone_points = {c.anchor_coords for c in effective_classes(fan, 6)}
        assert cone_points == combos


def test_effective_nonexamples(bl0p2):
    assert not is_effective(S(bl0p2) - E(bl0p2) - E(bl0p2))
    assert is_effective(S(bl0p2) - 0 * E(bl0p2))
