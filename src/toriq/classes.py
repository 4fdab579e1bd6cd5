"""Curve and divisor class lattices of a smooth complete toric fan.

Curve classes are stored as their full intersection pairing vector against
the toric boundary divisors; divisor classes in the anchor basis given by the
boundary divisors away from the fan's first maximal cone.  Both lattices are
free, so the public constructors, ``beta_a_sigma`` and the multiples take
ints only (``operator.index``).  Effectivity is membership in the rational
cone spanned by the wall curve classes, decided exactly through the dual
(nef) cone; one test (``_in_dual``) decides both cones.  The ray-relation
check runs once, at the boundary, in the public ``CurveClass`` constructor;
sums, multiples, degrees at a point, ``beta_a_sigma`` (so wall and anchor
classes), a valid quasimap's degrees and pushforwards along a valid
embedding skip it.
"""

import operator
from itertools import combinations

from .fan import memo, require_valid, walls
from .linalg import box_points, kernel_basis
from .record import Record


class CurveClass(Record):
    """A 1-cycle class, as the vector of its pairings with the boundary divisors.
    ``_derived`` builds values that are classes by construction unchecked."""

    _fields = ("fan", "pairings")

    def __init__(self, fan, pairings):
        self.__post_init__(fan, tuple(map(operator.index, pairings)))
        if len(self.pairings) != fan.n_rays:
            raise ValueError("pairing vector length does not match the ray count")
        if any(_dot(self.pairings, column) for column in zip(*fan.rays)):
            raise ValueError(f"pairing vector {self.pairings} is not a curve class "
                             "(it pairs inconsistently with the ray relations)")

    @classmethod
    def _derived(cls, fan, pairings):
        beta = cls.__new__(cls)
        beta.__post_init__(fan, pairings)
        return beta

    def __post_init__(self, fan, pairings):
        # every construction passes here, so wrapping this method counts them all
        self.__dict__.update(fan=fan, pairings=pairings)

    @property
    def anchor_coords(self):
        anchor = anchor_rays(self.fan)
        return tuple(self.pairings[i] for i in anchor)

    def is_zero(self):
        return all(x == 0 for x in self.pairings)

    def _combine(self, op, other):
        if other.fan is not self.fan and other.fan != self.fan:
            raise ValueError("curve classes of different fans cannot be combined")
        return CurveClass._derived(self.fan, tuple(map(op, self.pairings, other.pairings)))

    def __add__(self, other):
        return self._combine(operator.add, other)

    def __sub__(self, other):
        return self._combine(operator.sub, other)

    def __mul__(self, k):
        k = operator.index(k)
        return CurveClass._derived(self.fan, tuple(k * a for a in self.pairings))

    __rmul__ = __mul__


class DivisorClass(Record):
    """A divisor class in the anchor basis of the fan's first maximal cone."""

    _fields = ("fan", "coords")

    def __init__(self, fan, coords):
        vals = tuple(map(operator.index, coords))
        if len(vals) != len(anchor_rays(fan)):
            raise ValueError("coordinate length does not match the Picard rank")
        self.__dict__.update(fan=fan, coords=vals)

    def pair(self, beta):
        """Intersection number with a curve class."""
        return _dot(self.coords, beta.anchor_coords)

    def __add__(self, other):
        return DivisorClass(self.fan, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, k):
        k = operator.index(k)
        return DivisorClass(self.fan, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def ray_coefficients(self):
        """A representative as integer coefficients over all boundary divisors."""
        coeffs = [0] * self.fan.n_rays
        for c, i in zip(self.coords, anchor_rays(self.fan)):
            coeffs[i] = c
        return tuple(coeffs)


@memo
def anchor_rays(fan):
    """Ray indices outside the first maximal cone; their divisors form a Pic basis."""
    sigma0 = set(fan.max_cones[0])
    return tuple(i for i in range(fan.n_rays) if i not in sigma0)


def picard_rank(fan):
    return fan.n_rays - fan.dim


@memo
def divisor_class(fan, rho):
    """The class of the boundary divisor attached to ray ``rho`` in the anchor basis."""
    return divisor_from_ray_coefficients(fan, tuple(int(i == rho) for i in range(fan.n_rays)))


def divisor_from_ray_coefficients(fan, coeffs):
    """Anchor-basis class of a combination sum c_rho D_rho of boundary divisors.

    The divisor of the dual basis character m_k of the first cone sigma0 is
    D_{sigma0_k} + sum_i <m_k, u_i> D_i over the anchor rays i, and it is
    principal; so coordinate i is c_i - sum_k c_{sigma0_k} <m_k, u_i>.
    """
    require_valid(fan)
    if len(coeffs) != fan.n_rays:
        raise ValueError("one coefficient per ray is required")
    sigma0 = fan.max_cones[0]
    terms = [(coeffs[rho], row) for rho, row in zip(sigma0, fan.exponent_matrix(sigma0))]
    return DivisorClass(fan, tuple(coeffs[i] - sum(c * row[i] for c, row in terms)
                                   for i in anchor_rays(fan)))


@memo
def anticanonical_class(fan):
    return divisor_from_ray_coefficients(fan, (1,) * fan.n_rays)


def beta_a_sigma(fan, a, sigma):
    """The unique curve class pairing as prescribed with the divisors off a cone.

    ``a`` maps ray indices outside the maximal cone ``sigma`` to integers
    (a sequence indexed by rays, or a dict).  The
    pairings on the cone's own rays are forced by the ray relations, so the
    result is a class by construction and skips the check.
    """
    require_valid(fan)
    sigma = tuple(sorted(sigma))
    if sigma not in fan.max_cones:
        raise ValueError(f"{sigma} is not a maximal cone")
    complement = fan.cone_complement(sigma)
    pairings = [0] * fan.n_rays
    for i in complement:
        pairings[i] = operator.index(a[i])
    for rho, row in zip(sigma, fan.exponent_matrix(sigma)):
        pairings[rho] = -sum(pairings[i] * row[i] for i in complement)
    return CurveClass._derived(fan, tuple(pairings))


def curve_class_from_anchor(fan, coords):
    """Curve class with the given pairings against the anchor divisors."""
    anchor = anchor_rays(fan)
    if len(coords) != len(anchor):
        raise ValueError("coordinate length does not match the Picard rank")
    a = {i: c for i, c in zip(anchor, coords)}
    return beta_a_sigma(fan, a, fan.max_cones[0])


@memo
def wall_curve_classes(fan):
    """One curve class per wall: beta_{a,sigma} on one of its cones, with a
    the indicator of the other cone's ray across the wall.

    The order matches ``fan.walls``; these classes generate the cone of
    effective curve classes.
    """
    require_valid(fan)
    out = []
    for facet, (ci, cj) in walls(fan):
        b = next(rho for rho in fan.max_cones[cj] if rho not in facet)
        out.append(beta_a_sigma(fan, tuple(int(i == b) for i in range(fan.n_rays)),
                                fan.max_cones[ci]))
    return tuple(out)


@memo
def _mori_generators_anchor(fan):
    return tuple(dict.fromkeys(beta.anchor_coords for beta in wall_curve_classes(fan)))


@memo
def nef_extreme_rays(fan):
    """Primitive generators of the nef cone, as anchor-basis divisor classes."""
    require_valid(fan)
    gens = _mori_generators_anchor(fan)
    rank = picard_rank(fan)
    pool = []
    for subset in combinations(gens, rank - 1):
        kern = kernel_basis(subset, rank)
        if len(kern) == 1:
            pool.extend([kern[0], tuple(-x for x in kern[0])])
    candidates = {vec for vec in pool if _in_dual(gens, vec)}
    return tuple(DivisorClass(fan, c) for c in sorted(candidates))


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _in_dual(rows, vec):
    """Whether ``vec`` pairs nonnegatively with every row."""
    return all(_dot(row, vec) >= 0 for row in rows)


def is_effective(beta):
    """Membership of a curve class in the cone spanned by the wall classes."""
    return _in_dual([d.coords for d in nef_extreme_rays(beta.fan)], beta.anchor_coords)


def is_nef(divisor):
    return _in_dual(_mori_generators_anchor(divisor.fan), divisor.coords)


def is_ample(divisor):
    return all(_dot(g, divisor.coords) > 0 for g in _mori_generators_anchor(divisor.fan))


@memo
def is_fano(fan):
    return is_ample(anticanonical_class(fan))


@memo
def ample_functional(fan):
    """A canonical ample class; raises when the fan is not projective."""
    basis = nef_hilbert_basis(fan)
    total = None
    for d in basis:
        total = d if total is None else total + d
    if total is None or not is_ample(total):
        raise ValueError("no ample class: the fan is not projective")
    return total


@memo
def _degree_functional(fan):
    """The anticanonical class on a Fano fan, else ``ample_functional``: a
    degree that makes enumeration finite."""
    return anticanonical_class(fan) if is_fano(fan) else ample_functional(fan)


def length(beta):
    """Anticanonical degree of a curve class: the sum of its pairings."""
    return sum(beta.pairings)


def _truncated_cone_lattice_points(generators, inequalities, functional, bound):
    """Lattice points x of a cone with <functional, x> <= bound.

    ``generators`` span the cone (ints, anchor coordinates), which is the
    dual of the ``inequalities`` rows; ``functional`` is an integer vector
    positive on every generator.  The box of the vertices 0 and each
    bound * g / <functional, g> has its corners rounded inwards to integers.
    """
    if bound < 0:
        return []
    lo = hi = (0,) * len(generators[0])
    for g in generators:
        f = _dot(functional, g)
        if f <= 0:
            raise ValueError("functional is not positive on a cone generator")
        lo = tuple(min(a, -(-bound * x // f)) for a, x in zip(lo, g))
        hi = tuple(max(b, bound * x // f) for b, x in zip(hi, g))
    return list(box_points(
        (lo, hi), lambda x: _dot(functional, x) <= bound and _in_dual(inequalities, x)))


def effective_classes(fan, bound):
    """All effective curve classes with functional value at most ``bound``.

    The functional is the anticanonical degree when that is positive on the
    whole effective cone (the Fano case) and a fixed ample degree otherwise;
    either way the enumeration is finite and exact.
    """
    require_valid(fan)
    pts = _truncated_cone_lattice_points(
        _mori_generators_anchor(fan), [d.coords for d in nef_extreme_rays(fan)],
        _degree_functional(fan).coords, bound)
    return [curve_class_from_anchor(fan, p) for p in sorted(pts)]


@memo
def nef_hilbert_basis(fan):
    """A minimal generating set of the semigroup of nef divisor classes."""
    require_valid(fan)
    gens = _mori_generators_anchor(fan)
    extremes = [d.coords for d in nef_extreme_rays(fan)]
    if not extremes:
        raise ValueError("nef cone has no extreme rays (fan not projective?)")
    functional = tuple(map(sum, zip(*gens)))
    cap = _dot(functional, map(sum, zip(*extremes)))
    pts = [p for p in _truncated_cone_lattice_points(extremes, gens, functional, cap)
           if any(x != 0 for x in p)]
    values = {p: _dot(functional, p) for p in pts}
    basis = []
    for p in pts:
        reducible = False
        for q in pts:
            if values[q] >= values[p]:
                continue
            rest = tuple(a - b for a, b in zip(p, q))
            if any(x != 0 for x in rest) and _in_dual(gens, rest):
                reducible = True
                break
        if not reducible:
            basis.append(p)
    return tuple(DivisorClass(fan, p) for p in sorted(basis))


def factorizations(fan, beta, bound=None):
    """All splittings of an effective class into two nonzero effective parts.

    Deeper factorizations follow by recursion; the empty answer characterizes
    irreducible classes.  On non-Fano projective fans the search is bounded by
    an ample degree, so it stays finite either way; ``bound`` optionally caps
    the functional value of the candidate summands.
    """
    if not is_effective(beta) or beta.is_zero():
        raise ValueError("factorizations are defined for nonzero effective classes")
    cap = enumeration_degree(beta) - 1
    if bound is not None:
        cap = min(cap, bound)
    pairs = {}
    for part in effective_classes(fan, cap):
        if part.is_zero():
            continue
        rest = beta - part
        if rest.is_zero() or not is_effective(rest):
            continue
        pair = (part, rest) if part.anchor_coords <= rest.anchor_coords else (rest, part)
        pairs.setdefault((pair[0].anchor_coords, pair[1].anchor_coords), pair)
    return [pairs[key] for key in sorted(pairs)]


def enumeration_degree(beta):
    """The degree of ``beta`` under the functional ``effective_classes``
    bounds: the anticanonical degree on a Fano fan, a fixed ample degree
    otherwise.  Every effective summand of ``beta``, and so every basepoint
    class of a quasimap of class ``beta``, has at most this degree."""
    return _degree_functional(beta.fan).pair(beta)


def is_irreducible(fan, beta):
    return not factorizations(fan, beta)


@memo
def relaxed_surjectivity_condition(fan, length_bound=None):
    """Check the surjectivity hypothesis that replaces Fano.

    Every effective, nonzero, non-irreducible class with some pairing equal
    to 1 must pair positively with a second divisor.  Enumeration runs over
    all effective classes up to the given length bound (anticanonical degree
    in the Fano case, a fixed ample degree otherwise).
    """
    if length_bound is None:
        raise ValueError("relaxed-condition query requires a length bound")
    for beta in effective_classes(fan, length_bound):
        if beta.is_zero():
            continue
        positive = [i for i, d in enumerate(beta.pairings) if d > 0]
        if len(positive) == 1 and beta.pairings[positive[0]] == 1:
            if not is_irreducible(fan, beta):
                return False
    return True

