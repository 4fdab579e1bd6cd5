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
arithmetic works on such mixed lists directly.  Two kernels hold the place
arithmetic of ``shift`` and of the basepoint scan's orders: ``_divide_out``
divides by a place as often as it divides, up to a limit, and
``_multiply_in`` multiplies by a power of it.  At a rational place z - r a
division step is synthetic division (Horner's rule at r) and a
multiplication a shift-and-add, each written inline; other places use long
division and ``poly_mul``.  Division by a monic place never leaves the
integers of an integral form.  gcds run as primitive pseudo-remainder
sequences, and before each remainder the answer is read off where it can
be: 1 for a constant, and for a linear polynomial whether the other one
vanishes at its root.  ``common_zero_places`` takes one pass over its forms,
with no gcd once the running one is constant, and reads a monic linear gcd
as its place unfactored.  Polynomials of degree at most two are factored
over the rationals here; factoring degree three and up is delegated to
sympy, which is imported on first use so that the library and CLI start
without it.
"""

import math
from fractions import Fraction
from operator import index

from .linalg import int_or_frac, primitive_vector
from .record import Record


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _quotient(x, y):
    """x / y for nonzero y, an int when integral; ints that divide exactly
    build no Fraction."""
    if y == 1:
        return int_or_frac(x)
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        if not r:
            return q
    q = Fraction(x, y)
    return q.numerator if q.denominator == 1 else q


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _divide_out(poly, coeffs, limit=None):
    """Quotient of a nonzero polynomial by the highest power of a monic place
    polynomial that divides it, at most ``limit`` times, and that power.  By
    z - r each step is synthetic division (Horner's rule at the root r), by a
    place of higher degree long division; a monic divisor leaves the leading
    coefficient of each quotient, so none needs trimming."""
    count = 0
    if len(coeffs) == 2:
        root = -coeffs[0]
        while count != limit:
            acc, out = 0, []
            for c in reversed(poly):
                acc = c + root * acc
                out.append(acc)
            if out.pop():
                break
            out.reverse()
            poly = tuple(out)
            count += 1
        return poly, count
    n = len(coeffs) - 1
    while count != limit and len(poly) > n:
        rem = list(poly)
        quo = [0] * (len(rem) - n)
        for k in range(len(quo) - 1, -1, -1):
            coef = rem[k + n]
            if coef:
                quo[k] = coef
                for i in range(n):
                    rem[k + i] -= coef * coeffs[i]
        if any(rem[:n]):
            break
        poly = tuple(quo)
        count += 1
    return poly, count


def _multiply_in(poly, coeffs, times):
    """A nonzero polynomial times the monic place polynomial to the power
    ``times`` >= 0: by z - r a shift-and-add per factor."""
    if len(coeffs) != 2:
        for _ in range(times):
            poly = poly_mul(poly, coeffs)
        return poly
    c = coeffs[0]
    for _ in range(times):
        poly = (c * poly[0], *[x + c * y for x, y in zip(poly, poly[1:])], poly[-1])
    return poly


def _primitive_remainder(a, b):
    """Primitive integer part of the pseudo-remainder of polynomials a by b."""
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
    the gcd is taken by pseudo-remainders, each reduced to a primitive integer
    polynomial and put to the same two tests, and only the last nonzero one
    is made monic."""
    a = _trim(a) if a and a[-1] == 0 else a
    b = _trim(b) if b and b[-1] == 0 else b
    while True:
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
        if not b:
            return a if not a or a[-1] == 1 else tuple(_quotient(x, a[-1]) for x in a)
        a, b = b, _primitive_remainder(a, b)


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
        return _INFINITY

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


_INFINITY = Place._unchecked(True, ())


class BinaryForm(Record):
    """A homogeneous form of fixed degree on the projective line (possibly zero),
    with its dehomogenization ``poly`` (trailing zeros trimmed) computed once."""

    _fields = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        degree = index(degree)
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
        built in one pass: each value that is not an int normalized once, the
        polynomial trimmed in place and padded."""
        poly = [c if type(c) is int else int_or_frac(c) for c in poly_coeffs]
        while poly and poly[-1] == 0:
            poly.pop()
        if len(poly) > degree + 1:
            raise ValueError("polynomial degree exceeds the form degree")
        poly = tuple(poly)
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
        if exponent > 0:
            poly = _multiply_in(self.poly, place.coeffs, exponent)
        else:
            poly, count = _divide_out(self.poly, place.coeffs, -exponent)
            if count != -exponent:
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


def _factor_poly_sympy(poly):
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
    return _factor_poly_sympy(poly)


def common_zero_places(forms):
    """Places where every listed form vanishes (zero forms vanish everywhere).

    At least one form must be nonzero.  One pass over the nonzero forms keeps
    their polynomials' gcd, taking none once it is constant, and whether all
    vanish at infinity.  Returns the places of the gcd's squarefree support (a
    monic linear gcd is its own place), then infinity when all vanish there.
    """
    g, at_infinity = None, True
    for f in forms:
        poly = f.poly
        if not poly:
            continue
        if f.degree < len(poly):
            at_infinity = False
        if g is None:
            g = poly
        elif len(g) > 1:
            g = poly_gcd(g, poly)
    if g is None:
        raise ValueError("all forms vanish identically")
    places = []
    if len(g) == 2 and g[1] == 1:
        places.append(Place._unchecked(False, g))
    elif len(g) > 1:
        places.extend(Place.finite(c) for c, _ in _factor_poly(g)[1])
    if at_infinity:
        places.append(_INFINITY)
    return places
