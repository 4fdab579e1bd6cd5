"""Exact binary forms on the rational projective line.

A form of degree d in homogeneous coordinates [X : Y] is stored by the
coefficients c_0..c_d of sum c_k X^(d-k) Y^k; the same list read low-to-high
is the dehomogenization in the affine chart coordinate z = Y/X, with the
point at infinity [0 : 1] handled through the leftover power of X.  Zero
forms are legal for any degree (negative degrees force them) and represent
the zero section of the corresponding line bundle.

Places are monic irreducible polynomials in z, plus the place at infinity.
Coefficients, place coefficients and point coordinates are stored as ints
where integral and as Fractions only where not, and the polynomial
arithmetic works on such mixed lists directly: division by a monic place
never leaves the integers of an integral form (by a rational place z - r it
is synthetic division, Horner's rule at r), and gcds run over the integers
as primitive pseudo-remainder sequences, except where the answer is read off:
1 for a constant input, and for a linear input whether the other one vanishes
at its root.  Polynomials of degree at most two are factored over the
rationals here; factoring degree three and up is delegated to sympy, which is
imported on first use so that the library and CLI start without it.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .linalg import int_or_frac, primitive_vector
from .record import Record


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _quotient(x, y):
    """x / y for nonzero y, an int when integral."""
    if y == 1:
        return int_or_frac(x)
    q = Fraction(x, y)
    return q.numerator if q.denominator == 1 else q


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _divide_by_place(poly, coeffs):
    """Quotient and remainder (falsy when zero) of a nonzero polynomial by a
    monic place polynomial: long division, and by z - r synthetic division at
    the root r."""
    n = len(coeffs) - 1
    if n > 1:
        rem = list(poly)
        quo = [0] * max(len(rem) - n, 0)
        for shift in range(len(rem) - 1 - n, -1, -1):
            coef = rem[shift + n]
            if coef:
                quo[shift] = coef
                for i in range(n):
                    rem[shift + i] -= coef * coeffs[i]
        return _trim(quo), _trim(rem[:n])
    root = -coeffs[0]
    if not root:
        return poly[1:], poly[0]
    acc, out = 0, []
    for c in reversed(poly):
        acc = c + root * acc
        out.append(acc)
    rem = out.pop()
    return tuple(reversed(out)), rem


def _primitive_remainder(a, b):
    """Primitive part of the pseudo-remainder of integer polynomials a by b."""
    a = list(a)
    n = len(b) - 1
    lead = b[-1]
    while len(a) > n:
        coef = a.pop()
        if coef:
            if lead != 1:
                a = [x * lead for x in a]
            shift = len(a) - n
            for i in range(n):
                a[shift + i] -= coef * b[i]
    a = _trim(a)
    return primitive_vector(a) if a else a


def poly_gcd(a, b):
    """Monic gcd over the rationals (empty when both vanish).

    1 for a constant input; a linear input is tested at its root.  Otherwise
    the gcd runs over the integers: both inputs are scaled to primitive integer
    polynomials, each pseudo-remainder is reduced to its primitive part, and
    only the last nonzero one is made monic."""
    a, b = _trim(a), _trim(b)
    if len(a) == 1 or len(b) == 1:
        return (1,)
    if len(b) == 2:
        a, b = b, a
    if len(a) == 2:  # b vanishes at -a0/a1 iff its homogenization does at [a1 : -a0]
        x, y = -a[0], a[1]
        value, x_power = 0, 1
        for c in b:
            value = value * y + c * x_power
            x_power *= x
        return (1,) if value else (_quotient(a[0], y), 1)
    a = primitive_vector(a) if a else a
    b = primitive_vector(b) if b else b
    while b:
        a, b = b, _primitive_remainder(a, b)
    if a and a[-1] != 1:
        a = tuple(_quotient(x, a[-1]) for x in a)
    return a


class ProjPoint(Record):
    """A rational point [a : b] of the projective line, stored normalized:
    ``a`` is 1, or 0 at infinity, and ``b`` is the chart coordinate b/a as an
    int or Fraction, or 1 at infinity."""

    _fields = ("a", "b")

    def __init__(self, a, b):
        if a == 0 and b == 0:
            raise ValueError("[0 : 0] is not a point")
        if a != 0:
            a, b = 1, _quotient(b, a)
        else:
            a, b = 0, 1
        self.__dict__.update(a=a, b=b)

    @classmethod
    def from_chart(cls, z):
        return cls(1, z)

    @classmethod
    def infinity(cls):
        return cls(0, 1)

    @property
    def is_infinity(self):
        return self.a == 0

    @property
    def chart(self):
        """Affine coordinate z = b/a; None at infinity."""
        return None if self.is_infinity else self.b

    def sort_key(self):
        return (1,) if self.is_infinity else (0, self.b)

    def __repr__(self):
        return "[0 : 1]" if self.is_infinity else f"[1 : {self.b}]"


class Place(Record):
    """A closed point of the projective line: a monic irreducible polynomial
    in the chart coordinate, or the point at infinity."""

    _fields = ("at_infinity", "coeffs")  # coeffs: monic, low-to-high; empty at infinity

    def __init__(self, at_infinity, coeffs):
        if at_infinity:
            coeffs = ()
        else:
            coeffs = tuple(map(int_or_frac, coeffs))
            if len(coeffs) < 2 or coeffs[-1] != 1:
                raise ValueError("finite places are monic polynomials of degree >= 1")
        self.__dict__.update(at_infinity=at_infinity, coeffs=coeffs)

    @classmethod
    def infinity(cls):
        return cls(True, ())

    @classmethod
    def finite(cls, coeffs):
        return cls(False, tuple(coeffs))

    @classmethod
    def rational(cls, z):
        return cls.finite((-z, 1))

    @classmethod
    def of_point(cls, point):
        return cls.infinity() if point.is_infinity else cls.rational(point.chart)

    @property
    def degree(self):
        return 1 if self.at_infinity else len(self.coeffs) - 1

    def rational_point(self):
        """The point, when the place has degree one; None otherwise."""
        if self.at_infinity:
            return ProjPoint.infinity()
        if self.degree == 1:
            return ProjPoint.from_chart(-self.coeffs[0])
        return None

    def sort_key(self):
        return (1, ()) if self.at_infinity else (0, (self.degree, self.coeffs))

    def __repr__(self):
        if self.at_infinity:
            return "Place(inf)"
        return f"Place({self.coeffs})"


class BinaryForm(Record):
    """A homogeneous form of fixed degree on the projective line (possibly zero),
    with its dehomogenization ``poly`` (trailing zeros trimmed) computed once."""

    _fields = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        coeffs = tuple(map(int_or_frac, coeffs))
        if degree < 0:
            if any(x != 0 for x in coeffs):
                raise ValueError("negative-degree forms must be zero")
            coeffs = ()
        elif len(coeffs) != degree + 1:
            raise ValueError(f"a degree-{degree} form needs {degree + 1} coefficients, "
                             f"got {len(coeffs)}")
        # poly, the trimmed dehomogenization, stays out of == and hash
        self.__dict__.update(degree=degree, coeffs=coeffs, poly=_trim(coeffs))

    @classmethod
    def zero(cls, degree):
        return cls(degree, (0,) * (degree + 1) if degree >= 0 else ())

    @classmethod
    def constant(cls, value):
        return cls(0, (value,))

    @classmethod
    def from_poly(cls, degree, poly_coeffs):
        """Form of the given degree whose dehomogenization is the polynomial,
        built in one pass: each value normalized once, the polynomial trimmed
        and padded."""
        poly = _trim(map(int_or_frac, poly_coeffs))
        if len(poly) > degree + 1:
            raise ValueError("polynomial degree exceeds the form degree")
        form = cls.__new__(cls)
        form.__dict__.update(degree=degree, coeffs=poly + (0,) * (degree + 1 - len(poly)),
                             poly=poly)
        return form

    @property
    def is_zero(self):
        return not self.poly

    @property
    def poly_degree(self):
        return len(self.poly) - 1 if self.poly else None

    def value_at(self, point):
        """At [1 : b], Horner's rule on ``poly``; at [0 : 1], the top
        coefficient, a Fraction when any coefficient is (as the term sum is)."""
        if point.a:
            b = point.b
            total = 0
            for c in reversed(self.poly):
                total = total * b + c
            return total
        top = self.coeffs[-1] if self.coeffs else 0
        return Fraction(top) if any(type(c) is Fraction for c in self.poly) else top

    def scale(self, factor):
        return BinaryForm(self.degree, tuple(factor * c for c in self.coeffs))

    def ord_at(self, place):
        """Vanishing order at a place; infinite for the zero form (returns None)."""
        if self.is_zero:
            return None
        if place.at_infinity:
            return self.degree - self.poly_degree
        count, rem = 0, self.poly
        while True:
            rem, r = _divide_by_place(rem, place.coeffs)
            if r:
                return count
            count += 1

    def shift(self, place, exponent):
        """Multiply by place^exponent (divide exactly for negative exponents)."""
        if exponent == 0:
            return self
        new_degree = self.degree + exponent * place.degree
        if self.is_zero:
            return BinaryForm.zero(new_degree)
        if place.at_infinity:
            if exponent < 0 and self.degree - self.poly_degree < -exponent:
                raise ValueError("form is not divisible by the place at infinity")
            return BinaryForm.from_poly(new_degree, self.poly)
        poly = self.poly
        if exponent > 0:
            for _ in range(exponent):
                poly = poly_mul(poly, place.coeffs)
        else:
            for _ in range(-exponent):
                poly, r = _divide_by_place(poly, place.coeffs)
                if r:
                    raise ValueError("form is not divisible by the given place")
        return BinaryForm.from_poly(new_degree, poly)

    def factor(self):
        """Unit and place multiplicities with
        form = unit * X^(mult at infinity) * prod (monic factor homogenized)^mult."""
        if self.is_zero:
            raise ValueError("the zero form has no factorization")
        out = {}
        inf_mult = self.degree - self.poly_degree
        if inf_mult:
            out[Place.infinity()] = inf_mult
        unit, factors = _factor_poly(self.poly)
        for coeffs, mult in factors:
            out[Place.finite(coeffs)] = mult
        return unit, out

    def __repr__(self):
        return f"BinaryForm(deg={self.degree}, {self.coeffs})"


@lru_cache(maxsize=None)
def _factor_poly_cached(poly):
    import sympy

    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(poly)],
                      sympy.Symbol("z"), domain="QQ")
    unit, factors = expr.factor_list()
    unit = Fraction(int(unit.p), int(unit.q))  # a rational content over QQ
    out = []
    for fac, mult in factors:
        coeffs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        lead = coeffs[-1]
        if lead != 1:
            unit *= lead ** mult
            coeffs = [c / lead for c in coeffs]
        out.append((tuple(coeffs), int(mult)))
    return unit, tuple(out)


def _factor_monic_quadratic(c, b):
    """Monic factors of z^2 + b z + c over Q, in the order sympy gives them:
    a double root once with multiplicity 2, distinct rational roots p/q
    sorted by the primitive integer form [q, -p] of their linear factor."""
    disc = b * b - 4 * c
    num, den = math.isqrt(max(disc.numerator, 0)), math.isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return (((c, b, 1), 1),)  # no rational square root: irreducible
    if num == 0:
        return (((_quotient(b, 2), 1), 2),)
    root = Fraction(num, den)
    roots = sorted(((-b - root) / 2, (-b + root) / 2),
                   key=lambda r: (r.denominator, -r.numerator))
    return tuple(((-r, 1), 1) for r in roots)


def _factor_poly(poly):
    """Leading coefficient and (monic irreducible factor, multiplicity) pairs
    of a nonzero polynomial with exact coefficients, low-to-high."""
    poly = _trim(poly)
    if not poly:
        raise ValueError("cannot factor the zero polynomial")
    lead = poly[-1]
    if len(poly) == 1:
        return lead, ()
    if len(poly) == 2:
        return lead, (((_quotient(poly[0], lead), 1), 1),)
    if len(poly) == 3:
        return lead, _factor_monic_quadratic(_quotient(poly[0], lead), _quotient(poly[1], lead))
    return _factor_poly_cached(poly)


def common_zero_places(forms):
    """Places where every listed form vanishes (zero forms vanish everywhere).

    At least one form must be nonzero; returns places of the gcd's squarefree
    support, with the place at infinity included when all orders there are
    positive.
    """
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        raise ValueError("all forms vanish identically")
    g = None
    for f in nonzero:
        g = f.poly if g is None else poly_gcd(g, f.poly)
        if len(g) == 1:
            break
    places = []
    if g and len(g) > 1:
        _, factors = _factor_poly(g)
        places.extend(Place.finite(c) for c, _ in factors)
    if all(f.degree - f.poly_degree > 0 for f in nonzero):
        places.append(Place.infinity())
    return places
