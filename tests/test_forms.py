import random
from fractions import Fraction

import pytest

from toriq.forms import (BinaryForm, Place, ProjPoint, _factor_poly,
                         _factor_poly_cached, common_zero_places, poly_divmod,
                         poly_gcd, poly_mul)


def F(deg, *coeffs):
    return BinaryForm.from_poly(deg, coeffs)


def test_form_shape_checks():
    with pytest.raises(ValueError):
        BinaryForm(2, (1, 0))
    with pytest.raises(ValueError):
        BinaryForm(-1, (1,))
    assert BinaryForm.zero(-2).is_zero
    assert BinaryForm.zero(3).coeffs == (0, 0, 0, 0)


def test_orders_and_values():
    f = F(3, 0, -1, 0, 1)  # z^3 - z
    assert f.ord_at(Place.rational(0)) == 1
    assert f.ord_at(Place.rational(1)) == 1
    assert f.ord_at(Place.rational(2)) == 0
    assert f.ord_at(Place.infinity()) == 0
    g = F(4, 0, 0, 1)  # z^2 X^2 as a quartic
    assert g.ord_at(Place.infinity()) == 2
    assert g.value_at(ProjPoint.infinity()) == 0
    assert g.value_at(ProjPoint(1, 2)) == 4


def test_shift_multiplies_and_divides_exactly():
    f = F(2, 0, 1)  # z X
    up = f.shift(Place.rational(0), 1)
    assert up.degree == 3 and up.poly == (0, 0, 1)
    down = f.shift(Place.rational(0), -1)
    assert down.degree == 1 and down.poly == (1,)
    with pytest.raises(ValueError):
        f.shift(Place.rational(1), -1)
    inf_down = f.shift(Place.infinity(), -1)
    assert inf_down.degree == 1 and inf_down.poly == (0, 1)
    zero = BinaryForm.zero(2).shift(Place.rational(0), -3)
    assert zero.is_zero and zero.degree == -1


def test_factor_includes_infinity_and_units():
    f = F(4, 0, -2, 0, 2)  # 2(z^3 - z) inside degree 4: one zero at infinity
    unit, places = f.factor()
    assert unit == 2
    assert places[Place.infinity()] == 1
    assert places[Place.rational(0)] == 1
    assert places[Place.rational(1)] == 1
    assert places[Place.rational(-1)] == 1
    quad = F(2, 1, 0, 1)  # z^2 + 1 stays irreducible over Q
    unit, places = quad.factor()
    assert unit == 1
    (place, mult), = places.items()
    assert mult == 1 and place.degree == 2


def low_degree_corpus(rng, count):
    """Seeded polynomials of degree 1 and 2 with rational coefficients:
    linear ones, products of two rational linear factors, double roots and
    random (mostly irreducible) quadratics, each times a nonzero rational
    leading coefficient of either sign."""
    def scalar():
        return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6, 9)))

    def linear(root):
        return (-root, Fraction(1))

    corpus = []
    while len(corpus) < count:
        lead = scalar()
        if lead == 0:
            continue
        kind = len(corpus) % 4
        if kind == 0:
            monic = linear(scalar())
        elif kind == 1:
            monic = poly_mul(linear(scalar()), linear(scalar()))
        elif kind == 2:
            root = scalar()
            monic = poly_mul(linear(root), linear(root))
        else:
            monic = (scalar(), scalar(), Fraction(1))
        corpus.append(tuple(c * lead for c in monic))
    return corpus


def test_low_degree_factoring_agrees_with_sympy():
    corpus = low_degree_corpus(random.Random(2024), 1500)
    assert {len(p) for p in corpus} == {2, 3}
    oracle = _factor_poly_cached.__wrapped__
    for poly in corpus:
        assert _factor_poly(poly) == oracle(poly), poly


def test_common_zero_places():
    s2, st, t2 = F(2, 1), F(2, 0, 1), F(2, 0, 0, 1)
    assert common_zero_places([s2, st]) == [Place.infinity()]
    assert common_zero_places([st, t2]) == [Place.rational(0)]
    assert common_zero_places([s2, t2]) == []
    with pytest.raises(ValueError):
        common_zero_places([BinaryForm.zero(1), BinaryForm.zero(2)])


def test_poly_helpers():
    a = (Fraction(-1), Fraction(0), Fraction(1))  # z^2 - 1
    b = (Fraction(-1), Fraction(1))  # z - 1
    q, r = poly_divmod(a, b)
    assert q == (1, 1) and r == ()
    assert poly_gcd(a, b) == (-1, 1)
    assert poly_mul(b, (Fraction(1), Fraction(1))) == (-1, 0, 1)


def test_place_normalization():
    p = Place.rational(Fraction(3, 2))
    assert p.rational_point() == ProjPoint(2, 3)
    assert Place.infinity().rational_point() == ProjPoint.infinity()
    with pytest.raises(ValueError):
        Place.finite((1, 2))  # not monic


def test_point_normalization():
    assert ProjPoint(2, 4) == ProjPoint(1, 2)
    assert ProjPoint(0, 5) == ProjPoint.infinity()
    with pytest.raises(ValueError):
        ProjPoint(0, 0)
