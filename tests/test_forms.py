import random
from collections import Counter
from fractions import Fraction

import pytest

from toriq.basepoint import INF
from toriq.contraction import surjectivity_witness
from toriq.embedding import apply_ibar, build_epic_embedding, fibre_enumeration
from toriq.forms import (BinaryForm, Place, ProjPoint, _divide_out, _factor_poly,
                         _factor_poly_cached, _multiply_in, _quotient, _trim, common_zero_places,
                         poly_gcd, poly_mul)
from toriq.quasimap import basepoints, degrees, regular_extension

from qmgen import (ord_at_oracle, orders_at, poly_divmod_oracle, poly_gcd_oracle,
                   poly_gcd_prs_oracle, random_stable_quasimap)


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
    g = F(4, 0, 0, 1)  # z^2 X^2 as a quartic
    forms = (f, g, BinaryForm.zero(2))
    assert orders_at(forms, Place.rational(0)) == (1, 2, INF)
    assert orders_at(forms, Place.rational(1)) == (1, 0, INF)
    assert orders_at(forms, Place.rational(2)) == (0, 0, INF)
    assert orders_at(forms, Place.infinity()) == (0, 2, INF)
    assert g.value_at(ProjPoint.infinity()) == 0
    assert g.value_at(ProjPoint(1, 2)) == 4


# value_at as it was before Horner's rule: the sum of the terms
# c_k a^(d-k) b^k over the nonzero coefficients.  The oracle of the
# differential test below.
def value_at_oracle(form, point):
    a, b = point.a, point.b
    total = 0
    for k, c in enumerate(form.coeffs):
        if c != 0:
            total += c * a ** (form.degree - k) * b ** k
    return total


def test_horner_evaluation_matches_the_power_sum():
    """Seeded forms with int and Fraction coefficients, zero forms and forms
    of negative degree, at int, Fraction and infinite points: Horner's rule
    gives the oracle's value and its type, which chart points keep as their
    Cox values."""
    rng = random.Random(1902)
    pool = (0, 0, 1, -1, 3, -5, Fraction(1, 3), Fraction(-7, 2))
    points = [ProjPoint.from_chart(z) for z in (0, 1, -2, 5, Fraction(1, 2), Fraction(-3, 4))]
    points.append(ProjPoint.infinity())
    seen = Counter()
    for _ in range(400):
        degree = rng.randint(-2, 5)
        if degree < 0 or rng.random() < 0.1:
            form = BinaryForm.zero(degree)
        else:
            form = BinaryForm(degree, [rng.choice(pool) for _ in range(degree + 1)])
        for point in points:
            value, expected = form.value_at(point), value_at_oracle(form, point)
            assert value == expected and type(value) is type(expected), (form, point)
            seen[point.is_infinity, type(point.b), type(value)] += 1
    # every (point kind, value type) pair occurs: Fraction points give ints
    # only on zero forms, and infinity gives a Fraction over an int top
    # coefficient when another coefficient is one
    assert len(seen) == 6 and min(seen.values()) >= 20, seen


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
    assert _divide_out(a, b) == ((1, 1), 1)
    assert poly_gcd(a, b) == (-1, 1)
    assert poly_gcd(a + (0,), b + (0, 0)) == (-1, 1)  # trailing zeros are trimmed
    assert poly_gcd((0,), (0, 0)) == ()
    assert poly_mul(b, (Fraction(1), Fraction(1))) == (-1, 0, 1)


def test_quotient_is_an_int_exactly_when_integral():
    """The quotient's value, type and repr are those of the reduced Fraction,
    an int when its denominator is 1, over ints and Fractions of both signs."""
    values = [0, 1, -1, 2, -3, 6, -12, 35, Fraction(1, 2), Fraction(-9, 4), Fraction(6, 3)]
    types = Counter()
    for x in values:
        for y in values:
            if y == 0:
                continue
            exact = Fraction(x, y)
            expected = exact.numerator if exact.denominator == 1 else exact
            got = _quotient(x, y)
            assert type(got) is type(expected) and repr(got) == repr(expected), (x, y)
            types[type(got)] += 1
    assert types[int] >= 40 and types[Fraction] >= 40, types


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


def exact_corpus(rng, count):
    """Seeded polynomial pairs for the differential test: int, rational and
    integral-Fraction coefficients; pairs sharing a factor; non-monic, constant
    and place divisors; zero operands."""
    def scalar(kind):
        k = rng.randint(-6, 6)
        if kind == 0:
            return k
        if kind == 1:
            return Fraction(k)
        return Fraction(k, rng.choice((1, 2, 3, 4, 6)))

    def poly(degree):
        kind = rng.randrange(3)
        coeffs = [scalar(kind) for _ in range(degree + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = rng.choice((1, -1, 2, Fraction(1, 3)))
        return tuple(coeffs)

    def place():
        z = scalar(rng.randrange(3))
        if rng.random() < 0.5:
            return Place.rational(z).coeffs
        return Place.finite((z, scalar(rng.randrange(3)), 1)).coeffs

    pairs = []
    while len(pairs) < count:
        shape = len(pairs) % 5
        if shape == 0:  # independent polynomials
            a, b = poly(rng.randint(0, 5)), poly(rng.randint(0, 4))
        elif shape == 1:  # a shared factor
            common = poly(rng.randint(1, 2))
            a = poly_mul(common, poly(rng.randint(0, 3)))
            b = poly_mul(common, poly(rng.randint(0, 2)))
        elif shape == 2:  # a place divisor dividing a to some power
            b = place()
            a = poly(rng.randint(0, 3))
            for _ in range(rng.randint(0, 2)):
                a = poly_mul(a, b)
        elif shape == 3:  # constants
            a, b = poly(rng.randint(0, 4)), poly(0)
            if rng.random() < 0.5:
                a, b = b, a
        else:  # zero operands
            a, b = (), poly(rng.randint(0, 3))
            if rng.random() < 0.3:
                a, b = b, a
        pairs.append((a, b))
    return pairs


def test_integer_gcd_and_divmod_agree_with_euclid_oracles():
    pairs = exact_corpus(random.Random(7), 1500)
    for a, b in pairs:
        assert poly_gcd(a, b) == poly_gcd_oracle(a, b), (a, b)
        assert poly_gcd(b, a) == poly_gcd_oracle(b, a), (a, b)
        if a and len(b) > 1:
            # one division by a place, the divisor made monic: the quotient
            # when it divides, else the polynomial as it was
            m = tuple(_quotient(x, b[-1]) for x in b)
            q, r = poly_divmod_oracle(a, m)
            assert _divide_out(a, m, 1) == ((a, 0) if r else (q, 1)), (a, b)
    assert poly_gcd((), ()) == poly_gcd_oracle((), ()) == ()
    assert sum(len(poly_gcd(a, b)) > 1 for a, b in pairs) > 300


def small_degree_corpus(rng, count):
    """Seeded pairs with a constant or linear input: int, Fraction and
    integral-Fraction coefficients, non-monic linear inputs, integral and
    Fraction roots, the other input of degree 0-6 and sharing the root about
    half the time, and zero operands."""
    def scalar():
        kind = rng.randrange(3)
        k = rng.randint(-6, 6)
        if kind == 0:
            return k
        return Fraction(k, 1 if kind == 1 else rng.choice((1, 2, 3, 5)))

    def nonzero():
        return rng.choice((1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-4, 3), Fraction(6)))

    def poly(degree):
        return tuple(scalar() for _ in range(degree)) + (nonzero(),)

    pairs = []
    while len(pairs) < count:
        if len(pairs) % 4 == 0:  # a constant against anything
            a, b = (nonzero(),), rng.choice(((), poly(rng.randint(0, 6))))
        else:  # a linear input, a1 z + a0 with root -a0/a1
            a = (scalar(), nonzero())
            b = poly(rng.randint(0, 5))
            if rng.random() < 0.5:
                b = poly_mul(b, a)
            elif rng.random() < 0.1:
                b = ()
        if rng.random() < 0.5:
            a, b = b, a
        pairs.append((a, b))
    return pairs


def test_small_degree_gcd_agrees_with_the_prs_oracle():
    pairs = small_degree_corpus(random.Random(1501), 2000)
    linear = fraction_roots = 0
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            got = poly_gcd(x, y)
            assert repr(got) == repr(poly_gcd_prs_oracle(x, y)), (x, y)
            assert got == poly_gcd_oracle(x, y), (x, y)
        linear += len(got) == 2
        fraction_roots += len(got) == 2 and type(got[0]) is Fraction
    assert linear > 500 and fraction_roots > 150
    assert poly_gcd((), ()) == poly_gcd_prs_oracle((), ()) == ()


def test_common_zero_places_stops_at_the_first_constant_gcd(monkeypatch):
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr("toriq.forms.poly_gcd", counting_gcd)
    # the first polynomial, 5, is constant: no gcd is taken; all three vanish at infinity
    assert common_zero_places([F(2, 5), F(2, 0, 1), F(2, 1, 2)]) == [Place.infinity()]
    assert calls == []
    # gcd(2z - 2, z^2 + 1) = 1 stops the scan before z - 1
    assert common_zero_places([F(2, -2, 2), F(2, 1, 0, 1), F(2, -1, 1)]) == []
    assert len(calls) == 1
    assert common_zero_places([F(2, -2, 2), F(2, 1, -1), F(2, 0, -1, 1)]) == [Place.rational(1)]


# The shift as forms took it before division by a rational place went
# synthetic: repeated long division by the place polynomial, as qmgen's
# ``ord_at_oracle`` counts orders.  The oracles of the differential test below.
def shift_oracle(form, place, exponent):
    if exponent == 0:
        return form
    new_degree = form.degree + exponent * place.degree
    if form.is_zero:
        return BinaryForm.zero(new_degree)
    if place.at_infinity:
        if exponent < 0 and form.degree - form.poly_degree < -exponent:
            raise ValueError("form is not divisible by the place at infinity")
        return BinaryForm.from_poly(new_degree, form.poly)
    poly = form.poly
    if exponent > 0:
        for _ in range(exponent):
            poly = poly_mul(poly, place.coeffs)
    else:
        for _ in range(-exponent):
            q, r = poly_divmod_oracle(poly, place.coeffs)
            if r:
                raise ValueError("form is not divisible by the given place")
            poly = q
    return BinaryForm.from_poly(new_degree, poly)


DIVISION_PLACES = [Place.rational(z) for z in (0, 1, -2, 3, Fraction(1, 2), Fraction(-3, 4))]
DIVISION_PLACES += [Place.finite((1, 0, 1)), Place.finite((Fraction(1, 2), 1, 1)),
                    Place.infinity()]


def division_corpus(rng, count):
    """Seeded forms of degree 0 to 8, int or Fraction coefficients, most of
    them a random cofactor times a power of one of ``DIVISION_PLACES`` (a
    power of X at infinity), some of them zero."""
    def scalar(fractional):
        k = rng.randint(-5, 5)
        return Fraction(k, rng.choice((1, 2, 3, 4))) if fractional else k

    forms = []
    while len(forms) < count:
        degree = rng.randint(0, 8)
        if rng.random() < 0.05:
            forms.append(BinaryForm.zero(degree))
            continue
        fractional = rng.random() < 0.5
        place = rng.choice(DIVISION_PLACES)
        power = rng.randint(0, degree // place.degree)
        poly = tuple(scalar(fractional) for _ in range(degree - power * place.degree + 1))
        if not any(poly):
            continue
        if place.at_infinity:
            poly = _trim(poly)
            if len(poly) > degree - power + 1:
                continue
        else:
            for _ in range(power):
                poly = poly_mul(poly, place.coeffs)
        forms.append(BinaryForm.from_poly(degree, poly))
    return forms


def _outcome(fn, *args):
    """The result, or the ValueError's message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_place_division_agrees_with_divmod_oracle():
    forms = division_corpus(random.Random(31), 300)
    divided = {place: 0 for place in DIVISION_PLACES}
    refused = 0
    for form in forms:
        for place in DIVISION_PLACES:
            expected = ord_at_oracle(form, place)
            assert orders_at((form,), place) == (INF if expected is None else expected,), \
                (form, place)
            for exponent in range(-3, 4):
                expected = _outcome(shift_oracle, form, place, exponent)
                result = _outcome(form.shift, place, exponent)
                assert repr(result) == repr(expected), (form, place, exponent)
                if isinstance(expected, str):
                    refused += 1
                elif exponent < 0 and not form.is_zero:
                    divided[place] += 1
    assert min(divided.values()) > 20 and refused > 5000


def test_place_kernels_agree_with_divmod_and_product_loops():
    """``_divide_out`` at each limit against a loop of the divmod oracle that
    stops at the first nonzero remainder or at the limit, with the count where
    the division stops early, and ``_multiply_in`` at each power against a
    loop of ``poly_mul``: on every finite division place, rational, Fraction
    and quadratic."""
    forms = [f for f in division_corpus(random.Random(33), 200) if not f.is_zero]
    early = Counter()
    for form in forms:
        for place in DIVISION_PLACES[:-1]:
            for limit in (0, 1, 2, 3, None):
                poly, count = form.poly, 0
                while count != limit:
                    q, r = poly_divmod_oracle(poly, place.coeffs)
                    if r:
                        early[place] += count > 0
                        break
                    poly, count = q, count + 1
                got = _divide_out(form.poly, place.coeffs, limit)
                assert got == (poly, count), (form, place, limit)
            product = form.poly
            for times in range(4):
                assert _multiply_in(form.poly, place.coeffs, times) == product, (form, place, times)
                product = poly_mul(product, place.coeffs)
    assert not DIVISION_PLACES[-1].coeffs and len(early) == 8 and min(early.values()) > 10, early


def test_stored_poly_leaves_equality_hash_and_repr_alone():
    f = BinaryForm(3, (1, Fraction(1, 2), 0, 0))
    assert f.poly == (1, Fraction(1, 2)) == _trim(f.coeffs)
    assert f == BinaryForm.from_poly(3, (1, Fraction(1, 2)))
    assert hash(f) == hash((3, (1, Fraction(1, 2), 0, 0)))
    assert repr(f) == "BinaryForm(deg=3, (1, Fraction(1, 2), 0, 0))"
    assert f != BinaryForm(1, (1, Fraction(1, 2)))  # same poly, other degree
    assert BinaryForm.zero(2).poly == () and BinaryForm.zero(-1).poly == ()
    for name in ("poly", "coeffs", "degree"):
        with pytest.raises(AttributeError):
            setattr(f, name, ())
        with pytest.raises(AttributeError):
            delattr(f, name)


def _check_derived(form):
    """A form the library built must be the form the public constructor builds
    from its degree and coefficients, down to the types of its values."""
    rebuilt = BinaryForm(form.degree, form.coeffs)
    assert form == rebuilt and hash(form) == hash(rebuilt)
    assert repr(form) == repr(rebuilt) and repr(form.poly) == repr(rebuilt.poly)
    assert set(form.__dict__) == {"degree", "coeffs", "poly"}
    assert not form.poly or form.poly[-1] != 0
    with pytest.raises(AttributeError):
        form.coeffs = ()


def test_derived_forms_match_the_public_constructor(p2, p1xp1, bl0p2):
    rng = random.Random(1502)
    shifted = 0
    for form in division_corpus(rng, 150):
        for place in DIVISION_PLACES:
            for exponent in (-2, -1, 1, 2):
                try:
                    out = form.shift(place, exponent)
                except ValueError:
                    continue
                _check_derived(out)
                shifted += 1
    assert shifted > 1000
    for fan in (p2, p1xp1, bl0p2):
        emb = build_epic_embedding(fan)
        for _ in range(6):
            q = random_stable_quasimap(fan, rng, max_total_length=5)
            results = [apply_ibar(emb, q), surjectivity_witness(q).quasimap]
            results += fibre_enumeration(emb, results[0], degrees(q)[0])
            for result in results:
                for sections in result.components:
                    for form in sections:
                        _check_derived(form)
    # from_poly itself: untrimmed input, integral Fractions, the zero form of degree -1
    for degree, poly in ((3, (Fraction(4, 2), 0, Fraction(1, 3), 0, 0)), (2, (0, 0)), (-1, ())):
        _check_derived(BinaryForm.from_poly(degree, poly))
    assert repr(BinaryForm.from_poly(1, (Fraction(6, 3), 0)).coeffs) == "(2, 0)"
    for degree, poly in ((1, (1, 2, 3)), (-1, (1,)), (-2, ())):
        with pytest.raises(ValueError, match="polynomial degree exceeds the form degree"):
            BinaryForm.from_poly(degree, poly)


def exact_values(q):
    """Every coefficient of every form and every point coordinate of ``q``."""
    for sections in q.components:
        for form in sections:
            yield from form.coeffs
    for node in q.nodes:
        for _, point in node:
            yield from (point.a, point.b)
    for _, point in q.markings:
        yield from (point.a, point.b)


def assert_int_or_proper_fraction(values):
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


@pytest.mark.parametrize("name", ["p2", "p1xp1", "bl0p2"])
def test_form_data_is_int_or_proper_fraction(name, request):
    fan = request.getfixturevalue(name)
    emb = build_epic_embedding(fan)
    rng = random.Random(f"types/{name}")
    rational_seen = False
    for _ in range(8):
        q = random_stable_quasimap(fan, rng, max_total_length=5)
        bps = basepoints(q)
        assert_int_or_proper_fraction(c for bp in bps for c in bp.place.coeffs)
        image = apply_ibar(emb, q)
        extension = regular_extension(q)
        results = [q, extension, surjectivity_witness(q).quasimap, image]
        results += fibre_enumeration(emb, image, degrees(q)[0])
        for result in results:
            values = list(exact_values(result))
            assert_int_or_proper_fraction(values)
            rational_seen |= any(type(x) is Fraction for x in values)
    assert rational_seen
